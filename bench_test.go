package repro

// Benchmarks regenerating the paper's evaluation (one benchmark family per
// figure), plus ablations for the design choices DESIGN.md calls out and
// microbenchmarks of the substrates. The figure benchmarks report
// experiment seconds via b.ReportMetric, so `go test -bench .` prints the
// same quantities the paper plots (at reduced N; use cmd/youtopia-bench
// for full-size runs).

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/entangle"
	"repro/entangle/client"
	"repro/internal/eq"
	"repro/internal/harness"
	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/workload"
)

func benchCfg(n int) harness.Config {
	return harness.Config{N: n, Users: 600, Seed: 1,
		Engine: entangle.Options{StmtLatency: 100 * time.Microsecond}}
}

// BenchmarkFigure6a sweeps the six workloads over connection counts
// (Figure 6(a): time inversely proportional to connections; Entangled-T
// overhead ≈ query-evaluation overhead).
func BenchmarkFigure6a(b *testing.B) {
	for _, kind := range []workload.Kind{
		workload.NoSocialT, workload.SocialT, workload.EntangledT,
		workload.NoSocialQ, workload.SocialQ, workload.EntangledQ,
	} {
		for _, conns := range []int{10, 50, 100} {
			b.Run(fmt.Sprintf("%s/conns=%d", kind, conns), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					secs, err := harness.MeasureWorkload(benchCfg(200), kind, conns)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(secs, "exp-seconds")
				}
			})
		}
	}
}

// BenchmarkFigure6b sweeps pending-transaction counts against run
// frequencies (Figure 6(b): time linear in p, steeper at higher run
// frequency).
func BenchmarkFigure6b(b *testing.B) {
	for _, f := range []int{1, 10, 50} {
		for _, p := range []int{10, 50} {
			b.Run(fmt.Sprintf("f=%d/p=%d", f, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					secs, err := harness.MeasurePending(benchCfg(100), p, f)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(secs, "exp-seconds")
				}
			})
		}
	}
}

// BenchmarkFigure6c sweeps coordinating-set sizes for both structures
// (Figure 6(c): small slope in k).
func BenchmarkFigure6c(b *testing.B) {
	for _, s := range []workload.Structure{workload.SpokeHub, workload.Cycle} {
		for _, k := range []int{2, 5, 10} {
			for _, f := range []int{10, 50} {
				b.Run(fmt.Sprintf("%s/k=%d/f=%d", s, k, f), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						secs, err := harness.MeasureStructure(benchCfg(60), s, k, f)
						if err != nil {
							b.Fatal(err)
						}
						b.ReportMetric(secs, "exp-seconds")
					}
				})
			}
		}
	}
}

// BenchmarkFigure6bScale measures the streaming grounding pipeline at
// Figure 6(b)'s workload shape scaled up: p=8 pending flight queries
// re-grounded in one evaluation round over a wide Flights table at 10x and
// 100x the seed size (the regime where re-grounding cost is the paper's
// middle-tier bottleneck). path=streaming pulls rows through the batch
// cursor pipeline the engine uses — one id capture per query, zero row
// clones. The pre-streaming executor's row (one cloned table
// snapshot per round, 64x the bytes at 10x scale) retired with the
// executor; its result stays recorded in EXPERIMENTS.md. The 100x shape
// completes with the resident set bounded by the batch size
// (peak-batch-rows metric), not the table.
func BenchmarkFigure6bScale(b *testing.B) {
	const p = 8 // pending queries re-grounded per round
	pending := func(j int) *eq.Query {
		return &eq.Query{
			Head: []eq.Atom{eq.NewAtom("R", eq.CStr(fmt.Sprintf("u%d", j)), eq.V("f"))},
			Body: []eq.Atom{eq.NewAtom("Flights",
				eq.V("f"), eq.V("dt"), eq.V("d"), eq.V("c"), eq.V("s"))},
			Where:  []eq.Constraint{{Left: eq.V("d"), Op: eq.OpEq, Right: eq.CStr("LA")}},
			Choose: 1,
		}
	}
	for _, scale := range []struct {
		name string
		rows int
	}{
		{"10x", 20_000},
		{"100x", 200_000},
	} {
		tbl := scaleFlightsTable(b, scale.rows)
		snap := storage.Snapshot{CSN: 0}
		b.Run(fmt.Sprintf("scale=%s/path=streaming", scale.name), func(b *testing.B) {
			var stats eq.StreamStats
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := &snapCursorReader{tbl: tbl, snap: snap}
				for j := 0; j < p; j++ {
					gs, err := eq.GroundWith(pending(j), r, eq.GroundOptions{Stats: &stats})
					if err != nil {
						b.Fatal(err)
					}
					if len(gs) != matchingFlights {
						b.Fatalf("groundings = %d, want %d", len(gs), matchingFlights)
					}
				}
			}
			b.ReportMetric(float64(stats.PeakBatchRows()), "peak-batch-rows")
		})
	}
}

// matchingFlights is the number of dest='LA' rows scaleFlightsTable seeds:
// fixed regardless of scale, so the grounding OUTPUT stays constant while
// the scan INPUT grows — exactly the selective-query regime where streaming
// vs materializing the input is the whole story.
const matchingFlights = 8

func scaleFlightsTable(b *testing.B, rows int) *storage.Table {
	b.Helper()
	tbl := storage.NewTable("Flights", types.NewSchema(
		types.Column{Name: "fno", Type: types.KindInt},
		types.Column{Name: "fdate", Type: types.KindDate},
		types.Column{Name: "dest", Type: types.KindString},
		types.Column{Name: "carrier", Type: types.KindString},
		types.Column{Name: "seats", Type: types.KindInt},
	))
	dates := []string{"2011-05-03", "2011-05-04", "2011-05-05", "2011-05-06"}
	carriers := []string{"AA", "UA", "DL"}
	for i := 0; i < rows; i++ {
		dest := fmt.Sprintf("D%02d", i%50)
		if i < matchingFlights {
			dest = "LA"
		}
		if _, err := tbl.Insert(types.Tuple{
			types.Int(int64(i)), types.MustDate(dates[i%len(dates)]), types.Str(dest),
			types.Str(carriers[i%len(carriers)]), types.Int(int64(100 + i%200)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	return tbl
}

// snapCursorReader serves grounding reads the way the engine's groundReader
// does: one id capture per scan it opens, rows pulled in batches as
// references into the version chains — never cloned.
type snapCursorReader struct {
	tbl  *storage.Table
	snap storage.Snapshot
}

func (r *snapCursorReader) CanProbe(string, []int) bool { return false }

func (r *snapCursorReader) ScanCursor(string) (eq.RowCursor, error) {
	return r.tbl.ScanCursorAsOf(r.snap), nil
}

func (r *snapCursorReader) ProbeCursor(_ string, cols []int, vals []types.Value) (eq.RowCursor, error) {
	return r.tbl.ProbeCursor(r.snap, cols, vals)
}

// --- ablations ----------------------------------------------------------

func ablationDB(b *testing.B, iso entangle.Isolation) (*entangle.DB, *workload.Dataset) {
	b.Helper()
	d, err := workload.NewDataset(workload.Config{Users: 600, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	db, err := entangle.Open(entangle.Options{
		Isolation:      iso,
		RunFrequency:   20,
		DefaultTimeout: time.Minute,
		RetryInterval:  5 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	if err := d.Setup(db); err != nil {
		b.Fatal(err)
	}
	return db, d
}

// BenchmarkAblationIsolation compares entangled-pair throughput across
// isolation levels: FullEntangled (group commit + quasi-read locks),
// RelaxedReads (early lock release, no quasi-read locks), NoWidowGuard (no
// group commit), SnapshotIsolated (lock-free snapshot reads,
// first-committer-wins writes) — the §3.3/§4 trade-off between isolation
// and concurrency.
func BenchmarkAblationIsolation(b *testing.B) {
	for _, iso := range []entangle.Isolation{
		entangle.FullEntangled, entangle.RelaxedReads, entangle.NoWidowGuard,
		entangle.SnapshotIsolated,
	} {
		b.Run(iso.String(), func(b *testing.B) {
			db, d := ablationDB(b, iso)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				progs := d.Batch(workload.EntangledT, 20)
				handles := make([]*entangle.Handle, len(progs))
				for j, p := range progs {
					handles[j] = db.Submit(p)
				}
				for _, h := range handles {
					if o := h.Wait(); o.Status != entangle.StatusCommitted {
						b.Fatalf("outcome %+v", o)
					}
				}
			}
		})
	}
}

// BenchmarkAblationSolver isolates the coordinating-set solver: the exact
// branch-and-bound search (solver=exact) against the pre-exact greedy
// closure (solver=greedy, SolveBudget<0). On the disjoint Figure 6(c)
// structures the two must match answers and stay within noise of each
// other — exactness there costs only the component decomposition. On the
// competing chain-contest workload (a pair and a 3-cycle contending for
// one member) greedy answers 2 of every group where exact answers the
// provably maximum 3; the answered-per-group metric exposes it.
func BenchmarkAblationSolver(b *testing.B) {
	budgets := map[string]int{"exact": 0, "greedy": -1}
	for _, solver := range []string{"exact", "greedy"} {
		for _, s := range []workload.Structure{workload.SpokeHub, workload.Cycle} {
			b.Run(fmt.Sprintf("disjoint/%s/%s/k=5", solver, s), func(b *testing.B) {
				cfg := benchCfg(60)
				cfg.Engine.SolveBudget = budgets[solver]
				for i := 0; i < b.N; i++ {
					secs, err := harness.MeasureStructure(cfg, s, 5, 10)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(secs, "exp-seconds")
				}
			})
		}
		b.Run(fmt.Sprintf("competing/%s/chain", solver), func(b *testing.B) {
			cfg := benchCfg(0)
			cfg.Engine.SolveBudget = budgets[solver]
			const groups = 12
			for i := 0; i < b.N; i++ {
				secs, answered, err := harness.MeasureCompeting(cfg, workload.ChainContest, 0, groups, 4)
				if err != nil {
					b.Fatal(err)
				}
				want := 3 * groups
				if solver == "greedy" {
					want = 2 * groups
				}
				if answered != want {
					b.Fatalf("%s solver answered %d, want %d", solver, answered, want)
				}
				b.ReportMetric(secs, "exp-seconds")
				b.ReportMetric(float64(answered)/groups, "answered/group")
			}
		})
	}
}

// BenchmarkAblationRunFrequency isolates the §4 scheduling knob: cost of a
// fixed workload under different run frequencies.
func BenchmarkAblationRunFrequency(b *testing.B) {
	for _, f := range []int{1, 5, 20} {
		b.Run(fmt.Sprintf("f=%d", f), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				secs, err := harness.MeasurePending(benchCfg(60), 10, f)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(secs, "exp-seconds")
			}
		})
	}
}

// BenchmarkSnapshotReadHeavy measures the tentpole claim of the MVCC
// refactor on a 90/10 read/write mix: Serializable (Strict 2PL, table read
// locks serialize behind writers' intention locks) versus SnapshotIsolation
// (lock-free snapshot reads, first-committer-wins writes). Transactions are
// two statements with a simulated client-DBMS round trip between them —
// the paper's middle-tier regime, where locks are held across statement
// latency. That hold time is what builds the 2PL contention wall: waiters
// serialize behind sleeping lock holders, while SI transactions overlap
// their round trips freely because the read path never touches the lock
// manager. The op metric is one whole transaction.
func BenchmarkSnapshotReadHeavy(b *testing.B) {
	const (
		rows        = 64
		stmtLatency = 50 * time.Microsecond
	)
	for _, level := range []txn.IsolationLevel{txn.Serializable, txn.SnapshotIsolation} {
		b.Run(level.String(), func(b *testing.B) {
			cat := storage.NewCatalog()
			locks := lock.New(2 * time.Second)
			m := txn.NewManager(cat, locks, nil)
			if _, err := m.CreateTable("Accounts", types.NewSchema(
				types.Column{Name: "id", Type: types.KindInt},
				types.Column{Name: "balance", Type: types.KindInt},
			)); err != nil {
				b.Fatal(err)
			}
			seed, _ := m.Begin(txn.Serializable)
			ids := make([]storage.RowID, rows)
			for i := int64(0); i < rows; i++ {
				id, err := seed.Insert("Accounts", types.Tuple{types.Int(i), types.Int(100)})
				if err != nil {
					b.Fatal(err)
				}
				ids[i] = id
			}
			if err := seed.Commit(); err != nil {
				b.Fatal(err)
			}
			var seq atomic.Int64
			b.SetParallelism(8) // model more clients than cores, as a middle tier has
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					n := seq.Add(1)
					if n%10 == 0 {
						// Write transaction: read-modify-write one row with a
						// round trip between the statements, retrying
						// conflict and deadlock losses like any OLTP client.
						// Under 2PL the read half takes the table S lock and
						// upgrades, holding locks across the latency — the
						// serialization the paper's §3.3.3 regime pays; under
						// SI the read is lock-free and only the row X lock
						// spans the round trip, with first-committer-wins on
						// the update.
						for {
							tx, err := m.Begin(level)
							if err != nil {
								b.Error(err) // b.Fatal is not legal off the benchmark goroutine
								return
							}
							id := ids[int(n/10)%rows]
							got, err := tx.Scan("Accounts")
							if err != nil || len(got) != rows {
								tx.Abort()
								continue
							}
							time.Sleep(stmtLatency)
							if tx.Update("Accounts", id, types.Tuple{types.Int(n), types.Int(n)}) != nil {
								tx.Abort()
								continue
							}
							if tx.Commit() == nil {
								break
							}
							tx.Abort()
						}
						continue
					}
					// Read transaction: two full-table reads (the
					// grounding-style access pattern the paper's quasi-reads
					// lock) separated by a round trip. Under 2PL the S lock
					// is held across the latency; under SI nothing is held.
					for {
						tx, err := m.Begin(level)
						if err != nil {
							b.Error(err)
							return
						}
						got, err := tx.Scan("Accounts")
						if err != nil {
							tx.Abort()
							continue
						}
						if len(got) != rows {
							b.Errorf("scan saw %d rows, want %d", len(got), rows)
							tx.Abort()
							return
						}
						time.Sleep(stmtLatency)
						if _, err := tx.Scan("Accounts"); err != nil {
							tx.Abort()
							continue
						}
						tx.Commit()
						break
					}
				}
			})
		})
	}
}

// --- microbenchmarks of the substrates -----------------------------------

func BenchmarkEQEvaluatePair(b *testing.B) {
	db := eq.MapReader{
		"Flights": {
			{types.Int(122), types.Str("LA")},
			{types.Int(123), types.Str("LA")},
			{types.Int(124), types.Str("LA")},
		},
	}
	mk := func(me, them string) *eq.Query {
		return &eq.Query{
			Head:   []eq.Atom{eq.NewAtom("R", eq.CStr(me), eq.V("f"))},
			Post:   []eq.Atom{eq.NewAtom("R", eq.CStr(them), eq.V("f"))},
			Body:   []eq.Atom{eq.NewAtom("Flights", eq.V("f"), eq.V("d"))},
			Where:  []eq.Constraint{{Left: eq.V("d"), Op: eq.OpEq, Right: eq.CStr("LA")}},
			Choose: 1,
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := eq.Evaluate([]eq.Pending{
			{ID: 1, Query: mk("A", "B"), Reader: db},
			{ID: 2, Query: mk("B", "A"), Reader: db},
		}, eq.EvalOptions{})
		if res.Answers[1].Status != eq.Answered {
			b.Fatal("not answered")
		}
	}
}

func BenchmarkEQEvaluateCycle10(b *testing.B) {
	reader := eq.MapReader{"Slots": {{types.Int(1)}, {types.Int(2)}}}
	var pending []eq.Pending
	const k = 10
	for i := 0; i < k; i++ {
		me := fmt.Sprintf("u%d", i)
		next := fmt.Sprintf("u%d", (i+1)%k)
		pending = append(pending, eq.Pending{ID: i, Query: &eq.Query{
			Head:   []eq.Atom{eq.NewAtom("R", eq.CStr(me), eq.V("v"))},
			Post:   []eq.Atom{eq.NewAtom("R", eq.CStr(next), eq.V("v"))},
			Body:   []eq.Atom{eq.NewAtom("Slots", eq.V("v"))},
			Choose: 1,
		}, Reader: reader})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := eq.Evaluate(pending, eq.EvalOptions{})
		if res.Answers[0].Status != eq.Answered {
			b.Fatal("cycle not answered")
		}
	}
}

func BenchmarkStorageInsertLookup(b *testing.B) {
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "town", Type: types.KindString},
	)
	tbl := storage.NewTable("T", schema)
	tbl.CreateIndex("by_town", "town")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl.Insert(types.Tuple{types.Int(int64(i)), types.Str("LA")})
		if i%16 == 0 {
			tbl.Lookup([]string{"town"}, types.Tuple{types.Str("LA")})
		}
	}
}

func BenchmarkLockAcquireRelease(b *testing.B) {
	m := lock.New(0)
	obj := lock.TableRow{Table: "T", Row: lock.AllRows}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx := uint64(i + 1)
		if err := m.Acquire(tx, obj, lock.S); err != nil {
			b.Fatal(err)
		}
		m.ReleaseAll(tx)
	}
}

func BenchmarkWALAppend(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.wal")
	log, err := wal.Open(path, wal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	row := types.Tuple{types.Int(1), types.Str("LA")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := log.Append(wal.Insert(wal.TxID(i), "T", storage.RowID(i), row)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerThroughput drives the network service layer end to end:
// loopback TCP clients run a mixed load — classical inserts and indexed
// reads plus entangled pair coordinations (worker 2k pairs with worker
// 2k+1) — against one server. This puts the wire protocol, the
// per-connection dispatch, and the run scheduler on one measured path, so
// the serving stack is part of the perf trajectory from PR 4 on.
//
// The two modes are what remains of the PR 6 ablation: one request in
// flight per worker, and pipelined workers over a pooled client (depth
// amortizes write batching on both sides — the ≥100k ops/s acceptance row,
// recorded in EXPERIMENTS.md). The JSON-codec row (15k vs 89k ops/s) is
// retired with the codec; its result stays in EXPERIMENTS.md.
//
// Since PR 9 the measured server runs with a LIVE metrics registry — the
// acceptance criterion is that the metered binary/96 row stays within 3%
// of the unmetered PR 8 row — and the answer-latency percentiles the
// registry accumulates (p50/p99/p999 of submit → outcome for the pair
// coordinations) are reported alongside throughput, so the output
// carries the latency distribution, not just the rate.
func BenchmarkServerThroughput(b *testing.B) {
	for _, depth := range []int{1, 96} {
		b.Run(fmt.Sprintf("codec=binary/depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reg := obs.NewRegistry()
				secs, ops, err := measureServerThroughput(8, 6, depth, reg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(secs, "exp-seconds")
				b.ReportMetric(float64(ops)/secs, "ops/sec")
				hs := reg.Snapshot().Histograms["answer_latency"]
				if hs.Count == 0 {
					b.Fatal("metered run recorded no answer latencies")
				}
				b.ReportMetric(hs.P50MS, "answer-p50-ms")
				b.ReportMetric(hs.P99MS, "answer-p99-ms")
				b.ReportMetric(hs.P999, "answer-p999-ms")
			}
		})
	}
}

// measureServerThroughput runs rounds of mixed load through a pool of
// `workers` loopback connections and returns (wall seconds, operations
// performed). Each worker round issues `depth` pipelined classical
// operations (1 insert per 4 indexed selects, the read-heavy OLTP shape)
// plus one entangled pair coordination (submit + wait of half a pair), so
// coordinations ride alongside the classical stream exactly as the
// paper's middle tier intends.
func measureServerThroughput(workers, rounds, depth int, reg *obs.Registry) (float64, int, error) {
	db, err := entangle.Open(entangle.Options{RunFrequency: workers / 2, Metrics: reg})
	if err != nil {
		return 0, 0, err
	}
	defer db.Close()
	srv := server.New(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())
	addr := ln.Addr().String()

	pool, err := client.DialPool(addr, workers)
	if err != nil {
		return 0, 0, err
	}
	defer pool.Close()
	if err := pool.ExecDDL(`
		CREATE TABLE Flights (fno INT, fdate DATE, dest VARCHAR);
		CREATE TABLE Bookings (name VARCHAR, fno INT, fdate DATE);
		CREATE TABLE Notes (id INT, who VARCHAR);
		CREATE INDEX notes_id ON Notes (id);
	`); err != nil {
		return 0, 0, err
	}
	if _, err := pool.Exec(`
		INSERT INTO Flights VALUES (122, '2011-05-03', 'LA');
		INSERT INTO Flights VALUES (123, '2011-05-04', 'LA');
	`); err != nil {
		return 0, 0, err
	}

	pairScript := func(me, them string) string {
		return fmt.Sprintf(`
		BEGIN TRANSACTION WITH TIMEOUT 60 SECONDS;
		SELECT '%s', fno AS @fno, fdate AS @fdate INTO ANSWER FlightRes
		WHERE fno, fdate IN (SELECT fno, fdate FROM Flights WHERE dest='LA')
		AND ('%s', fno, fdate) IN ANSWER FlightRes
		CHOOSE 1;
		INSERT INTO Bookings VALUES ('%s', @fno, @fdate);
		COMMIT;`, me, them, me)
	}

	// One timed repetition of the whole mixed load. Key ranges are disjoint
	// per rep so reps never collide on Notes ids or booking names.
	rep := func(rep int) (float64, int, error) {
		var (
			wg    sync.WaitGroup
			ops   atomic.Int64
			fails atomic.Int64
		)
		start := time.Now()
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c := pool.Get()  // worker affinity: handles stay on one conn
				partner := i ^ 1 // worker 2k coordinates with 2k+1
				calls := make([]*client.Call, 0, depth)
				for r := 0; r < rounds; r++ {
					me := fmt.Sprintf("p%d_c%d_r%d", rep, i, r)
					them := fmt.Sprintf("p%d_c%d_r%d", rep, partner, r)
					// Start the coordination first so pairs across workers
					// overlap, then pipeline the classical ops behind it.
					var h *client.Handle
					if partner < workers {
						var err error
						if h, err = c.SubmitScript(pairScript(me, them)); err != nil {
							fails.Add(1)
							return
						}
					}
					calls = calls[:0]
					for j := 0; j < depth; j++ {
						key := ((rep*workers+i)*rounds+r)*depth + j
						if j%5 == 0 {
							calls = append(calls, c.ExecAsync(fmt.Sprintf(
								"INSERT INTO Notes VALUES (%d, '%s')", key, me)))
						} else {
							calls = append(calls, c.QueryAsync(fmt.Sprintf(
								"SELECT who FROM Notes WHERE id=%d", key-j)))
						}
					}
					for _, call := range calls {
						if _, err := call.Result(); err != nil {
							fails.Add(1)
							return
						}
						ops.Add(1)
					}
					if h != nil {
						if o := h.Wait(); o.Status != entangle.StatusCommitted {
							fails.Add(1)
							return
						}
						ops.Add(1)
					}
				}
			}(i)
		}
		wg.Wait()
		secs := time.Since(start).Seconds()
		if n := fails.Load(); n > 0 {
			return 0, 0, fmt.Errorf("server throughput: %d workers failed", n)
		}
		return secs, int(ops.Load()), nil
	}

	// Best-of-3: the timed section is short enough that a scheduling burst
	// on a shared host can halve one rep's throughput, so the fastest rep —
	// not the mean — estimates what the serving stack sustains. The GC
	// settle keeps debt from setup (and, under -benchtime, the previous
	// iteration's whole server) out of the first rep.
	bestSecs, bestOps := 0.0, 0
	for k := 0; k < 3; k++ {
		runtime.GC()
		secs, ops, err := rep(k)
		if err != nil {
			return 0, 0, err
		}
		if bestOps == 0 || float64(ops)/secs > float64(bestOps)/bestSecs {
			bestSecs, bestOps = secs, ops
		}
	}
	return bestSecs, bestOps, nil
}

func BenchmarkEnginePairEndToEnd(b *testing.B) {
	db, d := ablationDB(b, entangle.FullEntangled)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := d.NextPair()
		h1 := db.Submit(d.Entangled(workload.EntangledT, u, v))
		h2 := db.Submit(d.Entangled(workload.EntangledT, v, u))
		if o := h1.Wait(); o.Status != entangle.StatusCommitted {
			b.Fatalf("outcome %+v", o)
		}
		if o := h2.Wait(); o.Status != entangle.StatusCommitted {
			b.Fatalf("outcome %+v", o)
		}
	}
}

// BenchmarkOverloadShedding (PR 8) compares admission control against an
// unbounded server under a flood of parked coordination Waits — the load
// shape the gate exists for: every partnerless Wait parks a goroutine
// server-side until its script timeout, so accepted concurrency builds
// without bound unless admission sheds it. The measured quantity is
// time-to-fate per Wait: how long until the client learns anything at all
// (an outcome, or a typed retryable refusal it can act on — back off,
// route elsewhere, fail over). The unbounded server accepts all 512 waits
// and answers none before the 3s script timeout, so the whole latency
// distribution sits at the timeout; the shedding server parks only its
// in-flight budget and answers everything else in microseconds with
// wire.ErrOverloaded. shed-frac records the price: the fraction of waits
// refused rather than served.
func BenchmarkOverloadShedding(b *testing.B) {
	for _, mode := range []struct {
		name        string
		maxInFlight int
	}{
		{"mode=shed/limit=32", 32},
		{"mode=unbounded", -1},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p50, p90, shedFrac, err := measureOverload(mode.maxInFlight)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(p50, "p50-ms")
				b.ReportMetric(p90, "p90-ms")
				b.ReportMetric(shedFrac, "shed-frac")
			}
		})
	}
}

// measureOverload floods a server with 8 raw-wire connections × 64 parked
// Waits on partnerless coordinations (3s script timeout) and returns
// p50/p90 time-to-fate in ms plus the fraction shed. Raw connections — no
// client retry machinery — so the distribution is the server's alone.
func measureOverload(maxInFlight int) (p50, p90, shedFrac float64, err error) {
	const (
		conns        = 8
		waitsPerConn = 64
	)
	db, err := entangle.Open(entangle.Options{RunFrequency: 10})
	if err != nil {
		return 0, 0, 0, err
	}
	defer db.Close()
	srv := server.NewWithOptions(db, server.Options{
		MaxInFlight:    maxInFlight,
		PerConnPending: waitsPerConn, // per-conn cap out of the way: the global gate is under test
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, 0, err
	}
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())

	if err := db.ExecDDL(`
		CREATE TABLE Flights (fno INT, fdate DATE, dest VARCHAR);
		CREATE TABLE Bookings (name VARCHAR, fno INT, fdate DATE);
	`); err != nil {
		return 0, 0, 0, err
	}
	if _, err := db.Exec(`INSERT INTO Flights VALUES (122, '2011-05-03', 'LA')`); err != nil {
		return 0, 0, 0, err
	}
	script := func(i, j int) string {
		me := fmt.Sprintf("w%d_%d", i, j)
		return fmt.Sprintf(`
		BEGIN TRANSACTION WITH TIMEOUT 3 SECONDS;
		SELECT '%s', fno AS @f INTO ANSWER R
		WHERE fno IN (SELECT fno FROM Flights WHERE dest='LA')
		AND ('nobody', fno) IN ANSWER R CHOOSE 1;
		INSERT INTO Bookings VALUES ('%s', @f, '2011-05-03');
		COMMIT;`, me, me)
	}

	type fate struct {
		lat  time.Duration
		shed bool
	}
	fates := make([][]fate, conns)
	errs := make(chan error, conns)
	var submitted, flood sync.WaitGroup
	flood.Add(1) // released once every connection has all its handles
	for c := 0; c < conns; c++ {
		submitted.Add(1)
		go func(c int) {
			nc, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				submitted.Done()
				errs <- err
				return
			}
			defer nc.Close()
			handles := make([]uint64, 0, waitsPerConn)
			var id uint64
			for j := 0; j < waitsPerConn; j++ {
				id++
				if err := wire.WriteFrame(nc, wire.Request{ID: id, Op: wire.OpSubmit, SQL: script(c, j)}); err != nil {
					submitted.Done()
					errs <- err
					return
				}
				var resp wire.Response
				if err := wire.ReadInto(nc, &resp); err != nil || !resp.OK {
					submitted.Done()
					errs <- fmt.Errorf("submit: %v %s", err, resp.Error)
					return
				}
				handles = append(handles, resp.Handle)
			}
			submitted.Done()
			flood.Wait()
			// The flood: every Wait pipelined back-to-back, fates timed
			// from the moment the flood starts.
			start := time.Now()
			for j, h := range handles {
				id++
				if err := wire.WriteFrame(nc, wire.Request{ID: id, Op: wire.OpWait, Handle: h}); err != nil {
					errs <- fmt.Errorf("wait %d: %w", j, err)
					return
				}
			}
			for j := 0; j < waitsPerConn; j++ {
				var resp wire.Response
				if err := wire.ReadInto(nc, &resp); err != nil {
					errs <- fmt.Errorf("wait resp %d: %w", j, err)
					return
				}
				fates[c] = append(fates[c], fate{time.Since(start), resp.ErrCode == wire.ErrCodeOverloaded})
			}
			errs <- nil
		}(c)
	}
	submitted.Wait()
	flood.Done()
	for c := 0; c < conns; c++ {
		if err := <-errs; err != nil {
			return 0, 0, 0, err
		}
	}

	var lats []time.Duration
	sheds := 0
	for _, fs := range fates {
		for _, f := range fs {
			lats = append(lats, f.lat)
			if f.shed {
				sheds++
			}
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	quant := func(q float64) float64 {
		return float64(lats[int(q*float64(len(lats)-1))]) / float64(time.Millisecond)
	}
	return quant(0.50), quant(0.90), float64(sheds) / float64(len(lats)), nil
}

// BenchmarkShardedThroughput is the PR 10 scaling row: the same disjoint
// pair workload on one shard server vs two, each engine grounding
// serially against a simulated 1ms storage round trip —
// the paper's middle-tier bottleneck. Pairs are co-located on their home
// shard, so two shards split the grounding work with no cross-shard
// coordination; the acceptance claim is scaling-x >= 1.6 at 2 shards
// (recorded in EXPERIMENTS.md).
func BenchmarkShardedThroughput(b *testing.B) {
	var base float64 // best pairs/sec of the 1-shard row
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var best float64
			for i := 0; i < b.N; i++ {
				secs, pairs, err := measureShardedThroughput(shards)
				if err != nil {
					b.Fatal(err)
				}
				rate := float64(pairs) / secs
				if rate > best {
					best = rate
				}
				b.ReportMetric(secs, "exp-seconds")
				b.ReportMetric(rate, "pairs/sec")
				if shards > 1 && base > 0 {
					b.ReportMetric(rate/base, "scaling-x")
				}
			}
			if shards == 1 {
				base = best
			}
		})
	}
}

// shardedName deterministically finds a user name whose hash home is
// shard s, so the benchmark workload stays disjoint per shard without
// placement overrides.
func shardedName(m *shard.Map, s, seq int) string {
	for k := 0; ; k++ {
		name := fmt.Sprintf("u%d_%d_%d", s, seq, k)
		if m.Home(name) == s {
			return name
		}
	}
}

// measureShardedThroughput stands up `shards` shard servers over loopback
// TCP, routes a fixed budget of co-located entangled pairs through a
// sharded pool, and returns (best-of-3 wall seconds, pairs per rep).
func measureShardedThroughput(shards int) (float64, int, error) {
	const totalPairs = 24
	addrs := make([]string, shards)
	lns := make([]net.Listener, shards)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, 0, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	m := shard.New(addrs)
	for i := range lns {
		db, err := entangle.Open(entangle.Options{
			RunFrequency:  8,
			GroundLatency: time.Millisecond,
		})
		if err != nil {
			return 0, 0, err
		}
		srv := server.New(db)
		if err := srv.EnableSharding(m, i, server.ShardOptions{}); err != nil {
			db.Close()
			return 0, 0, err
		}
		go srv.Serve(lns[i])
		defer func(srv *server.Server, db *entangle.DB) {
			srv.Shutdown(context.Background())
			db.Close()
			srv.CloseSharding()
		}(srv, db)
	}

	pool, err := client.DialShardedPool(addrs[0], client.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer pool.Close()
	if err := pool.ExecDDL(`
		CREATE TABLE Flights (fno INT, fdate DATE, dest VARCHAR);
		CREATE TABLE Bookings (name VARCHAR, fno INT, fdate DATE);
	`); err != nil {
		return 0, 0, err
	}
	for i := 0; i < shards; i++ {
		if _, err := pool.GetShard(i).Exec(`
			INSERT INTO Flights VALUES (122, '2011-05-03', 'LA');
			INSERT INTO Flights VALUES (123, '2011-05-04', 'LA');
		`); err != nil {
			return 0, 0, err
		}
	}

	pairScript := func(me, them string) string {
		return fmt.Sprintf(`
		BEGIN TRANSACTION WITH TIMEOUT 60 SECONDS;
		SELECT '%s', fno AS @fno, fdate AS @fdate INTO ANSWER FlightRes
		WHERE fno, fdate IN (SELECT fno, fdate FROM Flights WHERE dest='LA')
		AND ('%s', fno, fdate) IN ANSWER FlightRes
		CHOOSE 1;
		INSERT INTO Bookings VALUES ('%s', @fno, @fdate);
		COMMIT;`, me, them, me)
	}

	rep := func(rep int) (float64, error) {
		handles := make([]*client.Handle, 0, 2*totalPairs)
		start := time.Now()
		for p := 0; p < totalPairs; p++ {
			s := p % shards
			a := shardedName(m, s, (rep*totalPairs+p)*2)
			bb := shardedName(m, s, (rep*totalPairs+p)*2+1)
			h1, err := pool.SubmitScript(pairScript(a, bb))
			if err != nil {
				return 0, err
			}
			h2, err := pool.SubmitScript(pairScript(bb, a))
			if err != nil {
				return 0, err
			}
			handles = append(handles, h1, h2)
		}
		for j, h := range handles {
			if o := h.Wait(); o.Status != entangle.StatusCommitted {
				return 0, fmt.Errorf("member %d: %v", j, o.Status)
			}
		}
		return time.Since(start).Seconds(), nil
	}

	best := 0.0
	for k := 0; k < 3; k++ {
		runtime.GC()
		secs, err := rep(k)
		if err != nil {
			return 0, 0, err
		}
		if best == 0 || secs < best {
			best = secs
		}
	}
	return best, totalPairs, nil
}
