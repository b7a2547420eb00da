// Package harness drives the paper's evaluation (§5.2): it regenerates the
// three panels of Figure 6 — concurrency scaling (6a), pending
// transactions vs. run frequency (6b), and entanglement complexity (6c) —
// over the workload generator, and renders the same series the paper
// plots.
//
// Absolute times differ from the paper (our substrate is an in-process Go
// engine, not MySQL 5.5 on 2011 hardware); the claims under test are the
// shapes: time inversely proportional to connections with Entangled-T's
// overhead explained by query evaluation (6a), time linear in p with worse
// slope at higher run frequency (6b), and a small slope in coordinating-set
// size (6c).
package harness

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/entangle"
	"repro/internal/workload"
)

// Config sizes an experiment.
type Config struct {
	// N is the number of transactions per data point (paper: 10000).
	N int
	// Users in the social graph.
	Users int
	// Seed for workload generation.
	Seed int64
	// Engine is the engine configuration under test, passed to
	// entangle.Open as one value. The experiments read StmtLatency (the
	// client-DBMS round trip that makes throughput connection-bound, as in
	// the paper's setup) and SolveBudget from it, and each overrides the
	// fields it sweeps itself: Connections, RunFrequency, the timeouts.
	Engine entangle.Options
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.N <= 0 {
		out.N = 1000
	}
	if out.Users <= 0 {
		out.Users = 1000
	}
	if out.Engine.StmtLatency <= 0 {
		out.Engine.StmtLatency = 200 * time.Microsecond
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	return out
}

// Point is one measurement.
type Point struct {
	X       float64
	Seconds float64
}

// Series is one plotted line.
type Series struct {
	Name   string
	Points []Point
}

// newDB opens a fresh in-memory database with a seeded dataset.
func newDB(cfg Config, connections, runFreq int) (*entangle.DB, *workload.Dataset, error) {
	d, err := workload.NewDataset(workload.Config{
		Users: cfg.Users,
		Seed:  cfg.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	opts := cfg.Engine
	opts.Connections, opts.RunFrequency = connections, runFreq
	opts.DefaultTimeout, opts.RetryInterval = 5*time.Minute, 10*time.Millisecond
	db, err := entangle.Open(opts)
	if err != nil {
		return nil, nil, err
	}
	if err := d.Setup(db); err != nil {
		db.Close()
		return nil, nil, err
	}
	return db, d, nil
}

// runClassical executes n programs through c worker connections (one
// transaction per connection at a time, as in the paper's MySQL driver).
func runClassical(db *entangle.DB, progs []entangle.Program, c int) error {
	jobs := make(chan entangle.Program)
	errCh := make(chan error, len(progs))
	var wg sync.WaitGroup
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range jobs {
				o := db.RunDirect(p)
				if o.Status != entangle.StatusCommitted {
					errCh <- fmt.Errorf("harness: %s: %v (%v)", p.Name, o.Status, o.Err)
					return
				}
			}
		}()
	}
	for _, p := range progs {
		jobs <- p
	}
	close(jobs)
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// runEntangledBatches submits programs in batches of batchSize (complete
// coordination groups) and waits for each batch, mirroring §5.2.2's batch
// submission.
func runEntangledBatches(db *entangle.DB, progs []entangle.Program, batchSize int) error {
	for start := 0; start < len(progs); start += batchSize {
		end := start + batchSize
		if end > len(progs) {
			end = len(progs)
		}
		handles := make([]*entangle.Handle, 0, end-start)
		for _, p := range progs[start:end] {
			handles = append(handles, db.Submit(p))
		}
		for i, h := range handles {
			if o := h.Wait(); o.Status != entangle.StatusCommitted {
				return fmt.Errorf("harness: batch tx %d: %v (%v)", start+i, o.Status, o.Err)
			}
		}
	}
	return nil
}

// MeasureWorkload times one (kind, connections) cell of Figure 6(a).
func MeasureWorkload(cfg Config, kind workload.Kind, connections int) (float64, error) {
	// Entangled batches are sized to the connection count and the engine
	// starts a run per full batch.
	runFreq := 1
	if kind.Entangled() {
		runFreq = connections
	}
	db, d, err := newDB(cfg, connections, runFreq)
	if err != nil {
		return 0, err
	}
	defer db.Close()
	progs := d.Batch(kind, cfg.N)
	start := time.Now()
	if kind.Entangled() {
		err = runEntangledBatches(db, progs, connections)
	} else {
		err = runClassical(db, progs, connections)
	}
	if err != nil {
		return 0, err
	}
	elapsed := time.Since(start).Seconds()
	if _, err := workload.VerifyReserve(db); err != nil {
		return 0, err
	}
	return elapsed, nil
}

// Figure6a regenerates the concurrency experiment: six workloads over the
// given connection counts.
func Figure6a(cfg Config, connections []int) ([]Series, error) {
	c := cfg.withDefaults()
	kinds := []workload.Kind{
		workload.NoSocialT, workload.SocialT, workload.EntangledT,
		workload.NoSocialQ, workload.SocialQ, workload.EntangledQ,
	}
	var out []Series
	for _, kind := range kinds {
		s := Series{Name: kind.String()}
		for _, conn := range connections {
			secs, err := MeasureWorkload(c, kind, conn)
			if err != nil {
				return nil, fmt.Errorf("%s @%d connections: %w", kind, conn, err)
			}
			s.Points = append(s.Points, Point{X: float64(conn), Seconds: secs})
		}
		out = append(out, s)
	}
	return out, nil
}

// Figure6b regenerates the pending-transactions experiment: p transactions
// per run lack partners (their partners are withheld until the end), and
// the run frequency f varies. Higher frequency means more runs, each
// re-executing and re-aborting the p pending transactions.
func Figure6b(cfg Config, pendings []int, freqs []int) ([]Series, error) {
	c := cfg.withDefaults()
	var out []Series
	for _, f := range freqs {
		s := Series{Name: fmt.Sprintf("f=%d", f)}
		for _, p := range pendings {
			secs, err := MeasurePending(c, p, f)
			if err != nil {
				return nil, fmt.Errorf("f=%d p=%d: %w", f, p, err)
			}
			s.Points = append(s.Points, Point{X: float64(p), Seconds: secs})
		}
		out = append(out, s)
	}
	return out, nil
}

// MeasurePending times one (p, f) cell of Figure 6(b).
func MeasurePending(cfg Config, p, f int) (float64, error) {
	secs, _, err := MeasurePendingStats(cfg, p, f)
	return secs, err
}

// MeasurePendingStats is MeasurePending returning the engine counters as
// well (run and requeue counts explain the figure's shape).
//
// The stream reproduces the paper's "carefully designed batches": each
// coordination pair's second member is submitted p transactions after the
// first, so a steady state of p partner-less transactions pends in the
// dormant pool for the whole experiment and is re-executed (and
// re-aborted) by every run. The experiment drives the runs itself — a
// db.Flush every f submissions, with the engine's own arrival trigger out
// of reach (RunFrequency 1<<30) — because Flush runs the whole pool as §4
// states the rule, where an engine arrival run would re-execute only what
// the arrivals can entangle with. The per-run cost is dominated by the
// simulated grounding round trips for the pending queries (GroundLatency),
// paid one after another as in the paper's middle tier: total time scales
// with (runs executed) x p, and runs scale with 1/f.
func MeasurePendingStats(cfg Config, p, f int) (float64, entangle.Stats, error) {
	d, err := workload.NewDataset(workload.Config{Users: cfg.Users, Seed: cfg.Seed})
	if err != nil {
		return 0, entangle.Stats{}, err
	}
	f = max(f, 1) // RunFrequency's default
	opts := cfg.Engine
	opts.Connections, opts.RunFrequency = 100+p, 1<<30
	// This experiment isolates evaluation cost: grounding round trips are
	// simulated, statement round trips are not.
	opts.StmtLatency, opts.GroundLatency = 0, 500*time.Microsecond
	opts.DefaultTimeout, opts.RetryInterval = 10*time.Minute, 500*time.Millisecond
	db, err := entangle.Open(opts)
	if err != nil {
		return 0, entangle.Stats{}, err
	}
	defer db.Close()
	if err := d.Setup(db); err != nil {
		return 0, entangle.Stats{}, err
	}

	pairs := cfg.N / 2
	type submitted struct {
		h *entangle.Handle
		i int
	}
	var handles []submitted
	var lag []entangle.Program
	const maxOutstanding = 100
	waitOldest := func(upTo int) error {
		for len(handles) > upTo {
			s := handles[0]
			handles = handles[1:]
			if o := s.h.Wait(); o.Status != entangle.StatusCommitted {
				return fmt.Errorf("stream tx %d: %v (%v)", s.i, o.Status, o.Err)
			}
		}
		return nil
	}

	start := time.Now()
	seq := 0
	submit := func(prog entangle.Program) {
		prog.Timeout = 10 * time.Minute
		handles = append(handles, submitted{h: db.Submit(prog), i: seq})
		if seq++; seq%f == 0 {
			db.Flush()
		}
	}
	for i := 0; i < pairs; i++ {
		u, v := d.NextPair()
		submit(d.Entangled(workload.EntangledT, u, v))
		lag = append(lag, d.Entangled(workload.EntangledT, v, u))
		if len(lag) > p {
			submit(lag[0])
			lag = lag[1:]
		}
		if err := waitOldest(maxOutstanding + p); err != nil {
			return 0, entangle.Stats{}, err
		}
	}
	// Flush the lagged partners.
	for _, prog := range lag {
		submit(prog)
	}
	if err := waitOldest(0); err != nil {
		return 0, entangle.Stats{}, err
	}
	return time.Since(start).Seconds(), db.Stats(), nil
}

// Figure6c regenerates the entanglement-complexity experiment:
// coordinating sets of size k in Spoke-hub and Cycle topologies, at run
// frequencies f.
func Figure6c(cfg Config, sizes []int, freqs []int) ([]Series, error) {
	c := cfg.withDefaults()
	var out []Series
	for _, structure := range []workload.Structure{workload.SpokeHub, workload.Cycle} {
		for _, f := range freqs {
			s := Series{Name: fmt.Sprintf("%s, f=%d", structure, f)}
			for _, k := range sizes {
				secs, err := MeasureStructure(c, structure, k, f)
				if err != nil {
					return nil, fmt.Errorf("%s k=%d f=%d: %w", structure, k, f, err)
				}
				s.Points = append(s.Points, Point{X: float64(k), Seconds: secs})
			}
			out = append(out, s)
		}
	}
	return out, nil
}

func MeasureStructure(cfg Config, structure workload.Structure, k, f int) (float64, error) {
	db, d, err := newDB(cfg, 100, f)
	if err != nil {
		return 0, err
	}
	defer db.Close()
	groups := cfg.N / k
	if groups == 0 {
		groups = 1
	}
	start := time.Now()
	const batchGroups = 8
	for g := 0; g < groups; g += batchGroups {
		nb := batchGroups
		if g+nb > groups {
			nb = groups - g
		}
		var handles []*entangle.Handle
		for b := 0; b < nb; b++ {
			progs, err := d.BuildStructure(structure, k, g+b)
			if err != nil {
				return 0, err
			}
			for _, p := range progs {
				handles = append(handles, db.Submit(p))
			}
		}
		for i, h := range handles {
			if o := h.Wait(); o.Status != entangle.StatusCommitted {
				return 0, fmt.Errorf("structure tx %d: %v (%v)", i, o.Status, o.Err)
			}
		}
	}
	return time.Since(start).Seconds(), nil
}

// MeasureCompeting runs `groups` competing structures of the given kind
// (buyers sizes MarketContest; f is the run frequency) and returns the
// wall time and the total number of answered participants — observable as
// verified Reserve rows. On competing structures the exact solver answers
// strictly more than the greedy ablation (Config.SolveBudget < 0); on the
// disjoint §5.2 structures the two must match.
func MeasureCompeting(cfg Config, kind workload.CompetingKind, buyers, groups, f int) (float64, int, error) {
	db, d, err := newDB(cfg, 100, f)
	if err != nil {
		return 0, 0, err
	}
	defer db.Close()
	start := time.Now()
	const batchGroups = 8
	for g := 0; g < groups; g += batchGroups {
		nb := batchGroups
		if g+nb > groups {
			nb = groups - g
		}
		var handles []*entangle.Handle
		for b := 0; b < nb; b++ {
			progs, err := d.BuildCompeting(kind, buyers, g+b)
			if err != nil {
				return 0, 0, err
			}
			for _, p := range progs {
				handles = append(handles, db.Submit(p))
			}
		}
		for i, h := range handles {
			if o := h.Wait(); o.Status != entangle.StatusCommitted {
				return 0, 0, fmt.Errorf("competing tx %d: %v (%v)", i, o.Status, o.Err)
			}
		}
	}
	secs := time.Since(start).Seconds()
	answered, err := workload.VerifyReserve(db)
	if err != nil {
		return 0, 0, err
	}
	return secs, answered, nil
}

// PrintSeries renders series as an aligned table: one row per X, one
// column per series.
func PrintSeries(w io.Writer, title, xLabel string, series []Series) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-12s", xLabel)
	for _, s := range series {
		fmt.Fprintf(w, "%16s", s.Name)
	}
	fmt.Fprintln(w)
	if len(series) == 0 {
		return
	}
	for i := range series[0].Points {
		fmt.Fprintf(w, "%-12.0f", series[0].Points[i].X)
		for _, s := range series {
			if i < len(s.Points) {
				fmt.Fprintf(w, "%15.3fs", s.Points[i].Seconds)
			}
		}
		fmt.Fprintln(w)
	}
}
