package core

import (
	"reflect"

	"repro/internal/eq"
	"repro/internal/obs"
)

// coreMetrics is the engine's counter and histogram set, registry-backed.
// The scattered Stats{...} fields of earlier revisions live behind these
// handles now: one obs.Registry owns every engine quantity, so a snapshot
// is a single registry read instead of a mixture of mutex-copied struct
// fields and separately-loaded atomics.
//
// Counter names match the Stats JSON tags so /metrics and \stats agree on
// vocabulary — and so Stats can be rendered from the tags alone.
type coreMetrics struct {
	reg *obs.Registry
	// statSources[i] reads the quantity behind Stats field i.
	statSources []func() int64

	submitted     *obs.Counter
	runs          *obs.Counter
	evalRounds    *obs.Counter
	commits       *obs.Counter
	groupCommits  *obs.Counter
	commitBatches *obs.Counter
	entangleOps   *obs.Counter
	requeues      *obs.Counter
	timeouts      *obs.Counter
	rollbacks     *obs.Counter
	failures      *obs.Counter
	widowsAverted *obs.Counter
	writeConflict *obs.Counter
	vacuums       *obs.Counter
	versionsPrune *obs.Counter

	groundings        *obs.Counter // queries grounded: Stats.GroundCacheMisses
	indexedGroundings *obs.Counter

	solveSteps     *obs.Counter
	solveFallbacks *obs.Counter

	// Latency histograms (log-spaced buckets, p50/p99/p999 via /metrics).
	answerLatency *obs.Histogram // Submit -> outcome delivery, end to end
	execLatency   *obs.Histogram // RunDirect (classical path), end to end
	groundRound   *obs.Histogram // grounding stage of one evaluation round
	solveRound    *obs.Histogram // coordinating-set search of one round
	commitFlush   *obs.Histogram // batched end-of-run WAL commit flush
	groundPull    *obs.Histogram // one cursor batch pull in the streaming pipeline
}

// newCoreMetrics registers the engine's instruments in reg; stream is the
// streaming pipeline's own accounting, bridged in as gauges.
func newCoreMetrics(reg *obs.Registry, stream *eq.StreamStats) *coreMetrics {
	m := &coreMetrics{
		reg:           reg,
		submitted:     reg.Counter("submitted"),
		runs:          reg.Counter("runs"),
		evalRounds:    reg.Counter("eval_rounds"),
		commits:       reg.Counter("commits"),
		groupCommits:  reg.Counter("group_commits"),
		commitBatches: reg.Counter("commit_batches"),
		entangleOps:   reg.Counter("entangle_ops"),
		requeues:      reg.Counter("requeues"),
		timeouts:      reg.Counter("timeouts"),
		rollbacks:     reg.Counter("rollbacks"),
		failures:      reg.Counter("failures"),
		widowsAverted: reg.Counter("widows_averted"),
		writeConflict: reg.Counter("write_conflicts"),
		vacuums:       reg.Counter("vacuums"),
		versionsPrune: reg.Counter("versions_pruned"),

		groundings:        reg.Counter("ground_cache_misses"),
		indexedGroundings: reg.Counter("indexed_groundings"),

		solveSteps:     reg.Counter("solve_steps"),
		solveFallbacks: reg.Counter("solve_fallbacks"),

		answerLatency: reg.Histogram("answer_latency"),
		execLatency:   reg.Histogram("exec_latency"),
		groundRound:   reg.Histogram("ground_round"),
		solveRound:    reg.Histogram("solve_round"),
		commitFlush:   reg.Histogram("commit_flush"),
		groundPull:    reg.Histogram("ground_pull"),
	}
	gauges := map[string]func() int64{
		"ground_rows_streamed":   stream.Rows,
		"ground_peak_batch_rows": stream.PeakBatchRows,
	}
	// Every Stats field's JSON tag names a gauge above or a registry counter
	// (the same *Counter the field of m holds — Counter is get-or-create).
	st := reflect.TypeOf(Stats{})
	for i := 0; i < st.NumField(); i++ {
		name := st.Field(i).Tag.Get("json")
		src := gauges[name]
		if src != nil {
			reg.Gauge(name, src)
		} else {
			src = reg.Counter(name).Load
		}
		m.statSources = append(m.statSources, src)
	}
	return m
}

// stats renders the registry as a Stats value in one pass. Callers hold
// e.statsMu so the lifecycle counters (which are incremented under the
// same lock) form an internally consistent set — a snapshot can never show
// more settled programs than submitted ones.
func (m *coreMetrics) stats() Stats {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	for i, src := range m.statSources {
		v.Field(i).SetInt(src())
	}
	return s
}

// bump increments one lifecycle counter under statsMu, the snapshot
// consistency lock. Hot-path counters (index probes, streamed rows) are
// bumped lock-free instead; only program-lifecycle transitions need the
// ordering the lock provides.
func (e *Engine) bump(c *obs.Counter) {
	if c == nil {
		return
	}
	e.statsMu.Lock()
	c.Add(1)
	e.statsMu.Unlock()
}

func (e *Engine) bumpN(c *obs.Counter, n int64) {
	if c == nil || n == 0 {
		return
	}
	e.statsMu.Lock()
	c.Add(n)
	e.statsMu.Unlock()
}

// Metrics exposes the engine's registry (its own when none was supplied).
func (e *Engine) Metrics() *obs.Registry { return e.met.reg }

// Tracer exposes the lifecycle tracer; nil when tracing is disabled.
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }
