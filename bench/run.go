package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/entangle"
	"repro/entangle/client"
)

// Load model: closed loop. A workload's drivers (spec.drivers, at most
// two) each wait for a reply before they send again, over conns client
// connections — the paper's middle tier is a fixed pool of connections
// whose callers each wait (Figure 6(a)).
const conns = 2

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload. With tracing off Metrics holds the
// end-to-end metrics, with tracing on the per-layer metrics.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Info is context that is neither gated nor a layer metric: sample
	// counts, the percentile actually reported as the tail, writer ops.
	Info   map[string]float64 `json:"info"`
	Errors []string           `json:"errors,omitempty"`
}

type runConfig struct {
	sp     spec
	seed   int64
	window time.Duration
	warmup time.Duration
	setups int // set-ups per run; setup_s is their median
	traced bool
	l      *launcher
	dir    string // scratch directory for WALs and logs
	out    string // where trace files go
}

// unitRec is one completed unit of the current phase.
type unitRec struct {
	lat time.Duration
	ok  bool
}

// deployment is a set-up system under test: servers, loaded tables,
// connections, parked pending members.
type deployment struct {
	sp      spec
	nodes   []*node
	clients []*client.Client // conns connections; on a sharded deployment clients[i] is shard i's
	pool    *client.Pool     // sharded deployments only (owns clients)
	home    func(string) int

	pendUnit []pairUnit
	pendA    []*client.Handle
}

func (d *deployment) closeClients() {
	if d.pool != nil {
		d.pool.Close()
	} else {
		for _, c := range d.clients {
			c.Close()
		}
	}
	d.clients, d.pool = nil, nil
}

func (d *deployment) stop() {
	d.closeClients()
	for _, n := range d.nodes {
		_ = n.stop()
	}
	d.nodes = nil
}

// dial opens the workload's connections against the running nodes.
func (d *deployment) dial(traced bool) error {
	opts := client.Options{Trace: traced}
	if d.sp.shards > 1 {
		pool, err := client.DialShardedPool(d.nodes[0].spec.addr, opts)
		if err != nil {
			return err
		}
		d.pool, d.home = pool, pool.Placement().Home
		for i := 0; i < d.sp.shards; i++ {
			d.clients = append(d.clients, pool.GetShard(i))
		}
		return nil
	}
	for i := 0; i < conns; i++ {
		c, err := client.DialOptions(d.nodes[0].spec.addr, opts)
		if err != nil {
			return err
		}
		d.clients = append(d.clients, c)
	}
	return nil
}

// shardClients returns one client per server process (DDL, loading and
// read-back address processes, not connections).
func (d *deployment) shardClients() []*client.Client {
	if d.sp.shards > 1 {
		return d.clients
	}
	return d.clients[:1]
}

// load runs statements in scripts of 500 over c, four scripts in flight.
func load(c *client.Client, stmts []string) error {
	const perScript, inFlight = 500, 4
	var calls []*client.Call
	for len(stmts) > 0 || len(calls) > 0 {
		for len(calls) < inFlight && len(stmts) > 0 {
			n := perScript
			if n > len(stmts) {
				n = len(stmts)
			}
			calls = append(calls, c.ExecAsync(strings.Join(stmts[:n], "\n")))
			stmts = stmts[n:]
		}
		if err := calls[0].Err(); err != nil {
			return err
		}
		calls = calls[1:]
	}
	return nil
}

// setUp starts the servers and brings them to the state the window starts
// from: schema, table load, index build, pending members parked.
func setUp(cfg runConfig, walDir string) (*deployment, error) {
	sp := cfg.sp
	d := &deployment{sp: sp}
	var peers []string
	for i := 0; i < sp.shards; i++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		peers = append(peers, addr)
	}
	for i, addr := range peers {
		ns := nodeSpec{addr: addr, wal: filepath.Join(walDir, fmt.Sprintf("wal-%d", i)), shard: i}
		if sp.shards > 1 {
			ns.peers = peers
		}
		if cfg.traced {
			var err error
			if ns.debug, err = freeAddr(); err != nil {
				return nil, err
			}
		}
		n, err := cfg.l.start(ns)
		if err != nil {
			d.stop()
			return nil, err
		}
		d.nodes = append(d.nodes, n)
	}
	if err := d.dial(cfg.traced); err != nil {
		d.stop()
		return nil, err
	}
	fail := func(err error) (*deployment, error) {
		d.stop()
		return nil, fmt.Errorf("set-up %s: %w", sp.name, err)
	}
	ddl, rows, index := sp.tables()
	for _, c := range d.shardClients() {
		if err := c.ExecDDL(ddl); err != nil {
			return fail(err)
		}
		if err := load(c, rows); err != nil {
			return fail(err)
		}
		if err := c.ExecDDL(index); err != nil {
			return fail(err)
		}
	}
	pend := newPairGen(sp, cfg.seed, pendingDriver, nil)
	for i := 0; i < sp.pending; i++ {
		u := pend.next()
		h, err := d.clients[i%len(d.clients)].SubmitScript(u.a.script)
		if err != nil {
			return fail(err)
		}
		d.pendUnit, d.pendA = append(d.pendUnit, u), append(d.pendA, h)
	}
	return d, nil
}

// pairOutcome is what the output check knows about one attempted group.
type pairOutcome struct {
	u         pairUnit
	committed bool
}

// driveState is one driver's record across warm-up and window.
type driveState struct {
	pairs   *pairGen
	mix     *mixGen
	groups  []pairOutcome // every group attempted, warm-up included
	units   []unitRec     // the current phase's units
	writers []time.Duration
	spans   *spanLog // nil with tracing off
	stages  *stageSamples
	err     error
}

// drivePairs is one closed-loop driver: coordinate one fresh pair at a
// time until the deadline. A group's latency runs from issuing the last
// member's submit to the last member's outcome, so the skew between
// partners on the client side is not counted.
func (d *deployment) drivePairs(st *driveState, lane int, deadline time.Time) {
	for time.Now().Before(deadline) {
		u := st.pairs.next()
		ia := lane % len(d.clients)
		if d.home != nil {
			ia = 0 // clients[i] is shard i's connection; the first member homes on shard 0
		}
		ca, cb := d.clients[ia], d.clients[(ia+1)%len(d.clients)]
		unit := len(st.groups)
		root := st.spans.open("unit", unit, -1)

		s := st.spans.open("client.submit", unit, root)
		ha, err := ca.SubmitScript(u.a.script)
		st.spans.close(s)
		if err != nil {
			st.err = fmt.Errorf("submit %s: %w", u.a.name, err)
			return
		}
		start := time.Now()
		s = st.spans.open("client.submit", unit, root)
		hb, err := cb.SubmitScript(u.b.script)
		st.spans.close(s)
		if err != nil {
			st.err = fmt.Errorf("submit %s: %w", u.b.name, err)
			return
		}
		actor := hb.TraceID()
		type waited struct {
			o  client.Outcome
			at time.Time
		}
		first := make(chan waited, 1)
		go func() { o := ha.Wait(); first <- waited{o, time.Now()} }()
		s = st.spans.open("client.wait", unit, root)
		ob := hb.Wait()
		st.spans.close(s)
		wa := <-first
		end := time.Now()
		st.spans.add("client.wait", unit, root, start, wa.at)
		st.spans.close(root)

		ok := wa.o.Status == entangle.StatusCommitted && ob.Status == entangle.StatusCommitted
		if !ok && st.err == nil {
			st.err = fmt.Errorf("group %s: %v/%v", u.a.name, wa.o.Status, ob.Status)
		}
		st.groups = append(st.groups, pairOutcome{u, ok})
		st.units = append(st.units, unitRec{end.Sub(start), ok})
		if st.stages != nil && unit%16 == 0 {
			if tr, err := cb.Trace(hb.TraceID()); err == nil {
				st.stages.addTrace(tr, actor)
			}
		}
		if u.writer != "" {
			ws := time.Now()
			s = st.spans.open("client.exec", unit, -1)
			_, err := ca.Exec(u.writer)
			st.spans.close(s)
			if err != nil {
				st.err = fmt.Errorf("writer: %w", err)
				return
			}
			st.writers = append(st.writers, time.Since(ws))
		}
	}
}

// driveMix keeps depth statements in flight on one connection and
// collects results in issue order; a statement's latency runs from issue
// to the moment its result is collected (an upper bound: a result can sit
// behind an older one).
func (d *deployment) driveMix(st *driveState, lane int, deadline time.Time) {
	type flying struct {
		st    stmt
		call  *client.Call
		start time.Time
		span  int
	}
	c := d.clients[lane%len(d.clients)]
	var q []flying
	collect := func() bool {
		f := q[0]
		q = q[1:]
		res, err := f.call.Result()
		end := time.Now()
		st.spans.close(f.span)
		ok := err == nil
		if ok && f.st.kind == kindSelect {
			ok = len(res.Rows) == 1 && len(res.Rows[0]) == 1 && res.Rows[0][0].Int64() == f.st.want
		}
		st.units = append(st.units, unitRec{end.Sub(f.start), ok})
		if err != nil {
			st.err = fmt.Errorf("%s: %w", f.st.sql, err)
		} else if !ok && st.err == nil {
			st.err = fmt.Errorf("%s: got %v, want %d", f.st.sql, res.Rows, f.st.want)
		}
		return err == nil
	}
	for time.Now().Before(deadline) {
		if len(q) == d.sp.depth && !collect() {
			break
		}
		s := st.mix.next()
		span, start := st.spans.open("client.exec", st.mix.n, -1), time.Now()
		q = append(q, flying{s, c.ExecAsync(s.sql), start, span})
	}
	for len(q) > 0 {
		collect()
	}
}

// phase runs every driver until deadline and returns when all have
// finished their last unit.
func (d *deployment) phase(states []*driveState, length time.Duration) time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for lane, st := range states {
		st.units, st.writers = nil, nil
		wg.Add(1)
		go func(lane int, st *driveState) {
			defer wg.Done()
			if d.sp.isPair() {
				d.drivePairs(st, lane, t0.Add(length))
			} else {
				d.driveMix(st, lane, t0.Add(length))
			}
		}(lane, st)
	}
	wg.Wait()
	return time.Since(t0)
}

// counters is the sum over the deployment's servers of what they already
// serve — engine stats, the dist_* registry counters — plus WAL file sizes
// and CPU time and peak memory from /proc.
type counters struct {
	stats    entangle.StatsSnapshot
	dist     map[string]int64
	walBytes int64
	selfCPU  time.Duration // this process, the load generator
	childCPU time.Duration
	rssMB    float64
}

func (d *deployment) counters() (counters, error) {
	c := counters{dist: map[string]int64{}, selfCPU: readProc(0).cpu}
	for i, cl := range d.shardClients() {
		s, err := cl.Stats()
		if err != nil {
			return c, err
		}
		c.stats.Runs += s.Runs
		c.stats.Requeues += s.Requeues
		c.stats.EvalRounds += s.EvalRounds
		c.stats.Commits += s.Commits
		c.stats.CommitBatches += s.CommitBatches
		c.stats.GroundCacheHits += s.GroundCacheHits
		c.stats.GroundCacheMisses += s.GroundCacheMisses
		c.stats.GroundRowsStreamed += s.GroundRowsStreamed
		m, err := cl.Metrics()
		if err != nil {
			return c, err
		}
		for name, v := range m.Counters {
			if strings.HasPrefix(name, "dist_") {
				c.dist[name] += v
			}
		}
		if fi, err := os.Stat(d.nodes[i].spec.wal); err == nil {
			c.walBytes += fi.Size()
		}
		ps := readProc(d.nodes[i].pid)
		c.childCPU += ps.cpu
		c.rssMB += ps.hwmMB
	}
	return c, nil
}

// window is what the timed window produced: its units and what the
// counters read at either end.
type window struct {
	elapsed       time.Duration
	attempted     int
	failed        int
	lats          []float64 // committed units' latencies in ms, sorted
	tickWaits     int       // cross-shard groups that took tickWait or longer
	writers       []float64 // pair_scan's classical UPDATE latencies, ms
	before, after counters
}

func (w *window) unitsPerS() float64 { return float64(len(w.lats)) / w.elapsed.Seconds() }

// perUnit is a counter delta over the window, per committed unit.
func (w *window) perUnit(delta int64) float64 { return ratio(float64(delta), float64(len(w.lats))) }

// measure runs the timed window.
func (d *deployment) measure(states []*driveState, length time.Duration) (*window, error) {
	w := &window{}
	var err error
	if w.before, err = d.counters(); err != nil {
		return nil, err
	}
	w.elapsed = d.phase(states, length)
	if w.after, err = d.counters(); err != nil {
		return nil, err
	}
	for _, st := range states {
		for _, u := range st.units {
			w.attempted++
			if !u.ok {
				w.failed++
				continue
			}
			w.lats = append(w.lats, float64(u.lat.Nanoseconds())/1e6)
			if d.sp.shards > 1 && u.lat >= tickWait {
				w.tickWaits++
			}
		}
		for _, v := range st.writers {
			w.writers = append(w.writers, float64(v.Nanoseconds())/1e6)
		}
	}
	sort.Float64s(w.lats)
	return w, nil
}

// runWorkload is one run: set up (several times, keeping the last), warm
// up, measure for the window, check the outputs, restart and re-check.
func runWorkload(cfg runConfig) (*result, error) {
	res := &result{Workload: cfg.sp.name, Seed: cfg.seed, Metrics: map[string]metric{}, Info: map[string]float64{}}
	if cfg.traced {
		res.Trace = 1
	}
	walDir, err := os.MkdirTemp(cfg.dir, cfg.sp.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walDir)

	var d *deployment
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if d != nil {
			d.stop()
		}
		dir := filepath.Join(walDir, fmt.Sprintf("setup-%d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		if d, err = setUp(cfg, dir); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer func() { d.stop() }()

	states := make([]*driveState, cfg.sp.drivers)
	for lane := range states {
		st := &driveState{}
		if cfg.sp.isPair() {
			st.pairs = newPairGen(cfg.sp, cfg.seed, lane, d.home)
		} else {
			st.mix = newMixGen(cfg.sp, cfg.seed, lane)
		}
		states[lane] = st
	}
	d.phase(states, cfg.warmup)
	if cfg.traced {
		for _, st := range states {
			st.spans, st.stages = &spanLog{}, &stageSamples{}
		}
	}
	w, err := d.measure(states, cfg.window)
	if err != nil {
		return nil, err
	}
	for _, st := range states {
		if st.err != nil {
			res.Errors = append(res.Errors, st.err.Error())
		}
	}
	stages := &stageSamples{}
	if cfg.traced && !cfg.sp.isPair() {
		stages.addRecent(d.nodes[0]) // before the restart empties the server's trace ring
	}

	// Output checks. Pending partners arrive now; every parked member must
	// commit with them.
	if err := d.finishPending(states[0]); err != nil {
		res.Errors = append(res.Errors, err.Error())
	}
	bad, err := d.check(states)
	if err != nil {
		res.Errors = append(res.Errors, err.Error())
	}
	recoverS := 0.0
	if cfg.sp.restart {
		var again int
		if recoverS, err = d.restart(cfg); err != nil {
			res.Errors = append(res.Errors, "restart: "+err.Error())
		} else if again, err = d.check(states); err != nil {
			res.Errors = append(res.Errors, "after restart: "+err.Error())
		}
		bad += again
	}
	res.Attempted, res.Failed = w.attempted, w.failed+bad
	res.Correct = len(res.Errors) == 0 && res.Failed == 0

	tail := tailPercentile(len(w.lats))
	p50 := percentile(w.lats, 50)
	res.Info["samples"] = float64(len(w.lats))
	res.Info["tail_percentile"] = tail
	res.Info["window_s"] = w.elapsed.Seconds()
	if len(w.writers) > 0 {
		res.Info["writer_ops"] = float64(len(w.writers))
		res.Info["writer_p50_ms"] = median(w.writers)
	}
	if !cfg.traced {
		res.Metrics["units_per_s"] = metric{w.unitsPerS(), "1/s"}
		res.Metrics["p50_ms"] = metric{p50, "ms"}
		res.Metrics["p99_ms"] = metric{percentile(w.lats, tail), "ms"}
		res.Metrics["setup_s"] = metric{median(setupS), "s"}
		return res, nil
	}

	// Per-layer metrics: counter deltas over the window, the program's own
	// span trees, then direct calls into each layer from this process.
	lm := res.Metrics
	lm["traced.units_per_s"] = metric{w.unitsPerS(), "1/s"}
	lm["traced.p50_ms"] = metric{p50, "ms"}
	lm["wal.recover_s"] = metric{recoverS, "s"}
	w.layerCounters(lm)
	var logs []*spanLog
	for _, st := range states {
		stages.merge(st.stages)
		logs = append(logs, st.spans)
	}
	stages.report(lm)
	lm["server.rtt_us"] = metric{medianTime(2000, func() { _ = d.clients[0].Ping() }), "us"}
	d.stop() // the probes must not share the cores with idle servers' timers
	probes := &spanLog{}
	if err := probeLayers(cfg, walDir, states, lm, probes); err != nil {
		return nil, err
	}
	budget(cfg.sp, lm, p50)
	if cfg.out != "" {
		if err := writeSpans(filepath.Join(cfg.out, "trace-"+cfg.sp.name+".json"), append(logs, probes)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// layerCounters reports the layer metrics that are deltas of the servers'
// own counters over the window.
func (w *window) layerCounters(lm map[string]metric) {
	a, b := w.after.stats, w.before.stats
	lm["core.runs_per_unit"] = metric{w.perUnit(a.Runs - b.Runs), "count"}
	lm["core.requeues_per_unit"] = metric{w.perUnit(a.Requeues - b.Requeues), "count"}
	lm["core.eval_rounds_per_unit"] = metric{w.perUnit(a.EvalRounds - b.EvalRounds), "count"}
	hits, misses := a.GroundCacheHits-b.GroundCacheHits, a.GroundCacheMisses-b.GroundCacheMisses
	rows := a.GroundRowsStreamed - b.GroundRowsStreamed
	lm["core.groundcache_hit_ratio"] = metric{ratio(float64(hits), float64(hits+misses)), "ratio"}
	lm["eq.groundings_per_unit"] = metric{w.perUnit(misses), "count"}
	lm["eq.rows_per_ground"] = metric{ratio(float64(rows), float64(misses)), "count"}
	lm["eq.rows_per_unit"] = metric{w.perUnit(rows), "count"}
	commits := float64(a.Commits - b.Commits)
	lm["wal.bytes_per_commit"] = metric{ratio(float64(w.after.walBytes-w.before.walBytes), commits), "B"}
	lm["wal.flushes_per_commit"] = metric{ratio(float64(a.CommitBatches-b.CommitBatches), commits), "ratio"}
	lm["dist.tick_wait_share"] = metric{ratio(float64(w.tickWaits), float64(len(w.lats))), "ratio"}
	lm["dist.groups"] = metric{float64(w.after.dist["dist_groups"] - w.before.dist["dist_groups"]), "count"}
	lm["dist.aborts"] = metric{float64(w.after.dist["dist_group_aborts"] - w.before.dist["dist_group_aborts"]), "count"}
	self, child := w.after.selfCPU-w.before.selfCPU, w.after.childCPU-w.before.childCPU
	lm["server.rss_mb"] = metric{w.after.rssMB, "MB"}
	lm["loadgen_cpu_share"] = metric{ratio(float64(self), float64(self+child)), "ratio"}
}

// tickWait is half the engine's 25 ms RetryInterval: a cross-shard group
// that took this long waited for a retry tick rather than for work.
const tickWait = 12500 * time.Microsecond

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finishPending submits the parked members' partners and requires every
// one of the pending pairs to commit.
func (d *deployment) finishPending(st *driveState) error {
	var hs []*client.Handle
	for i, u := range d.pendUnit {
		h, err := d.clients[(i+1)%len(d.clients)].SubmitScript(u.b.script)
		if err != nil {
			return fmt.Errorf("pending partner %s: %w", u.b.name, err)
		}
		hs = append(hs, h)
	}
	var errs []string
	for i, u := range d.pendUnit {
		oa, ob := d.pendA[i].Wait(), hs[i].Wait()
		ok := oa.Status == entangle.StatusCommitted && ob.Status == entangle.StatusCommitted
		st.groups = append(st.groups, pairOutcome{u, ok})
		if !ok {
			errs = append(errs, fmt.Sprintf("pending pair %s: %v/%v", u.a.name, oa.Status, ob.Status))
		}
	}
	d.pendUnit, d.pendA = nil, nil
	if len(errs) > 0 {
		return errors.New(strings.Join(errs, "; "))
	}
	return nil
}

// restart stops the single server gracefully, starts it again on the same
// WAL and returns the time until it answered a Ping.
func (d *deployment) restart(cfg runConfig) (float64, error) {
	d.closeClients()
	spec := d.nodes[0].spec
	if err := d.nodes[0].stop(); err != nil {
		return 0, err
	}
	d.nodes = nil
	start := time.Now()
	n, err := cfg.l.start(spec)
	if err != nil {
		return 0, err
	}
	took := time.Since(start).Seconds()
	d.nodes = []*node{n}
	return took, d.dial(false)
}
