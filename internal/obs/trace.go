package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one completed lifecycle stage of a traced query. Spans are
// recorded flat at completion time; the tree structure is implicit in
// (Actor, Start) — every span belonging to one original query shares its
// Actor even after the trace merges with entangled partners.
type Span struct {
	Name  string  `json:"name"`
	Actor uint64  `json:"actor"`           // original trace id of the query this span belongs to
	Start float64 `json:"start_ms"`        // offset from trace begin, milliseconds
	DurMS float64 `json:"dur_ms"`          // span duration, milliseconds
	Shard int     `json:"shard,omitempty"` // shard that recorded the span (sharded deployments)
	Note  string  `json:"note,omitempty"`  // free-form stage detail (round=2 rows=40 ...)
}

// Trace is one query lifecycle (or several, once entanglement merges
// them). It is mutated only under the owning Tracer's lock.
type Trace struct {
	ID      uint64    `json:"id"`
	Begin   time.Time `json:"begin"`
	Spans   []Span    `json:"spans"`
	Aliases []uint64  `json:"aliases,omitempty"` // trace ids merged into this one
	done    bool
	ends    int // Finish calls received; a merged trace needs one per member
	finish  time.Time
}

// TotalMS is the wall time from trace begin to finish (or to the end of
// the last span while live).
func (t *Trace) TotalMS() float64 {
	if t.done {
		return float64(t.finish.Sub(t.Begin)) / 1e6
	}
	var maxEnd float64
	for _, s := range t.Spans {
		if end := s.Start + s.DurMS; end > maxEnd {
			maxEnd = end
		}
	}
	return maxEnd
}

// TracerOptions configures a Tracer.
type TracerOptions struct {
	// RingSize bounds the recent-trace ring (default 256).
	RingSize int
	// SlowQuery logs a finished trace's full span tree when its total
	// duration meets the threshold. Zero disables.
	SlowQuery time.Duration
	// SlowSpan logs any single span (e.g. one ground round) meeting the
	// threshold as it is recorded. Zero disables.
	SlowSpan time.Duration
	// Log receives slow-query/slow-span lines (default: discarded).
	Log io.Writer
	// Shard stamps every recorded span with the owning shard id, so a
	// cross-shard trace shows which process did what. Zero (the
	// single-process default) leaves spans unstamped.
	Shard int
}

// Tracer holds live traces and a bounded ring of recently finished ones.
// All methods are nil-safe; a span recorded against trace id 0 is
// dropped, so untraced requests pay only the id==0 comparison.
type Tracer struct {
	mu    sync.Mutex
	live  map[uint64]*Trace
	alias map[uint64]uint64 // merged id -> canonical id
	ring  []*Trace          // most recent last
	opts  TracerOptions
}

// NewTracer builds a tracer.
func NewTracer(opts TracerOptions) *Tracer {
	if opts.RingSize <= 0 {
		opts.RingSize = 256
	}
	return &Tracer{
		live:  make(map[uint64]*Trace),
		alias: make(map[uint64]uint64),
		opts:  opts,
	}
}

// resolve follows the alias chain to the canonical live trace, creating
// it when id is unknown (first span wins the begin timestamp). Caller
// holds t.mu.
func (t *Tracer) resolve(id uint64, begin time.Time) *Trace {
	for {
		canon, ok := t.alias[id]
		if !ok {
			break
		}
		id = canon
	}
	tr := t.live[id]
	if tr == nil {
		tr = &Trace{ID: id, Begin: begin}
		t.live[id] = tr
	}
	return tr
}

// Begin establishes a trace's start time. Optional — the first recorded
// span creates the trace too — but calling it at mint time anchors span
// offsets at query arrival rather than first instrumented stage.
func (t *Tracer) Begin(id uint64, at time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.resolve(id, at)
	t.mu.Unlock()
}

// Span records one completed stage. actor attributes the span to its
// original query inside a merged trace; pass actor == id when unmerged.
func (t *Tracer) Span(id, actor uint64, name string, start time.Time, d time.Duration, note string) {
	if t == nil || id == 0 {
		return
	}
	if actor == 0 {
		actor = id
	}
	t.mu.Lock()
	tr := t.resolve(id, start)
	sp := Span{
		Name:  name,
		Actor: actor,
		Start: float64(start.Sub(tr.Begin)) / 1e6,
		DurMS: float64(d) / 1e6,
		Shard: t.opts.Shard,
		Note:  note,
	}
	tr.Spans = append(tr.Spans, sp)
	slow := t.opts.SlowSpan > 0 && d >= t.opts.SlowSpan
	w := t.opts.Log
	t.mu.Unlock()
	if slow && w != nil {
		fmt.Fprintf(w, "obs: slow span trace=%d actor=%d %s %.3fms %s\n", tr.ID, actor, name, sp.DurMS, note)
	}
}

// Merge unions the given traces under the smallest id, which becomes (or
// stays) the canonical trace; the others become aliases and their spans
// move over. Ids equal to 0 are ignored. Returns the canonical id (0 if
// none given or the tracer is nil).
func (t *Tracer) Merge(ids []uint64) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var canon *Trace
	for _, id := range ids {
		if id == 0 {
			continue
		}
		tr := t.resolve(id, time.Now())
		if canon == nil || tr == canon {
			canon = tr
			continue
		}
		if tr.ID < canon.ID {
			canon, tr = tr, canon
		}
		// Fold tr into canon: spans keep their actors; offsets re-anchor
		// on the canonical begin time.
		shift := float64(tr.Begin.Sub(canon.Begin)) / 1e6
		for _, s := range tr.Spans {
			s.Start += shift
			canon.Spans = append(canon.Spans, s)
		}
		canon.Aliases = append(canon.Aliases, tr.ID)
		canon.Aliases = append(canon.Aliases, tr.Aliases...)
		for _, a := range tr.Aliases {
			t.alias[a] = canon.ID
		}
		t.alias[tr.ID] = canon.ID
		delete(t.live, tr.ID)
	}
	if canon == nil {
		return 0
	}
	return canon.ID
}

// Export returns a copy of a live trace's begin time and spans for
// shipping to another process's tracer (the coordinator of a cross-shard
// group). The trace stays live locally. ok is false for unknown ids.
func (t *Tracer) Export(id uint64) (begin time.Time, spans []Span, ok bool) {
	if t == nil || id == 0 {
		return time.Time{}, nil, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	canon := id
	for {
		c, aliased := t.alias[canon]
		if !aliased {
			break
		}
		canon = c
	}
	tr := t.live[canon]
	if tr == nil {
		return time.Time{}, nil, false
	}
	return tr.Begin, append([]Span(nil), tr.Spans...), true
}

// Absorb folds spans exported from another process into the trace id
// resolves to here, re-anchoring their offsets from the remote begin time
// to the local trace's. Unknown ids create the trace (begin = remote
// begin), so a coordinator can absorb a participant's lifecycle before
// merging the group's traces into one.
func (t *Tracer) Absorb(id uint64, begin time.Time, spans []Span) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := t.resolve(id, begin)
	shift := float64(begin.Sub(tr.Begin)) / 1e6
	for _, s := range spans {
		s.Start += shift
		tr.Spans = append(tr.Spans, s)
	}
}

// Canonical resolves id through merges to the trace id it now lives
// under. Returns id itself when unmerged (or tracer nil).
func (t *Tracer) Canonical(id uint64) uint64 {
	if t == nil || id == 0 {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		canon, ok := t.alias[id]
		if !ok {
			return id
		}
		id = canon
	}
}

// Finish completes a trace: it moves from the live set to the recent
// ring and, when it met the slow-query threshold, its full span tree is
// logged. Finishing an alias finishes the canonical trace; finishing an
// unknown id is a no-op.
//
// A merged trace has several members, and each settles — and finishes —
// independently; the trace leaves the live set only on the LAST member's
// Finish (one call per member: itself plus one per alias), so an early
// finisher cannot ring the trace while its partner's spans are still
// being recorded.
func (t *Tracer) Finish(id uint64, at time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	canon := id
	for {
		c, ok := t.alias[canon]
		if !ok {
			break
		}
		canon = c
	}
	tr := t.live[canon]
	if tr == nil {
		t.mu.Unlock()
		return
	}
	tr.ends++
	if tr.ends < 1+len(tr.Aliases) {
		t.mu.Unlock()
		return
	}
	tr.done = true
	tr.finish = at
	delete(t.live, canon)
	t.ring = append(t.ring, tr)
	if over := len(t.ring) - t.opts.RingSize; over > 0 {
		t.ring = append(t.ring[:0], t.ring[over:]...)
	}
	slow := t.opts.SlowQuery > 0 && at.Sub(tr.Begin) >= t.opts.SlowQuery
	w := t.opts.Log
	t.mu.Unlock()
	if slow && w != nil {
		fmt.Fprint(w, FormatTrace(tr))
	}
}

// Recent returns copies of the most recently finished traces, newest
// first. Nil-safe.
func (t *Tracer) Recent() []Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Trace, 0, len(t.ring))
	for i := len(t.ring) - 1; i >= 0; i-- {
		out = append(out, snapshotTrace(t.ring[i]))
	}
	return out
}

// Get returns a copy of the trace id resolves to — live or recent —
// and whether it was found.
func (t *Tracer) Get(id uint64) (Trace, bool) {
	if t == nil || id == 0 {
		return Trace{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	canon := id
	for {
		c, ok := t.alias[canon]
		if !ok {
			break
		}
		canon = c
	}
	if tr := t.live[canon]; tr != nil {
		return snapshotTrace(tr), true
	}
	for i := len(t.ring) - 1; i >= 0; i-- {
		if t.ring[i].ID == canon {
			return snapshotTrace(t.ring[i]), true
		}
	}
	return Trace{}, false
}

// snapshotTrace deep-copies the mutable slices so callers can hold the
// result outside the lock.
func snapshotTrace(tr *Trace) Trace {
	cp := *tr
	cp.Spans = append([]Span(nil), tr.Spans...)
	cp.Aliases = append([]uint64(nil), tr.Aliases...)
	return cp
}

// FormatTrace renders a span tree: spans grouped by actor, each actor's
// spans in start order — the slow-query log line format and the shell's
// \trace rendering.
func FormatTrace(tr *Trace) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %d total=%.3fms spans=%d", tr.ID, tr.TotalMS(), len(tr.Spans))
	if len(tr.Aliases) > 0 {
		fmt.Fprintf(&b, " merged=%v", tr.Aliases)
	}
	b.WriteByte('\n')
	byActor := map[uint64][]Span{}
	var actors []uint64
	for _, s := range tr.Spans {
		if _, seen := byActor[s.Actor]; !seen {
			actors = append(actors, s.Actor)
		}
		byActor[s.Actor] = append(byActor[s.Actor], s)
	}
	sort.Slice(actors, func(i, j int) bool { return actors[i] < actors[j] })
	for _, a := range actors {
		fmt.Fprintf(&b, "  actor %d\n", a)
		spans := byActor[a]
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		for _, s := range spans {
			fmt.Fprintf(&b, "    %-10s +%.3fms %.3fms", s.Name, s.Start, s.DurMS)
			if s.Note != "" {
				b.WriteString("  " + s.Note)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
