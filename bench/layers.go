package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/entangle"
	"repro/internal/dist"
	"repro/internal/eq"
	"repro/internal/lock"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The layer probes measure each module from outside, by timing calls into
// its exported functions on the workload's own inputs: the scripts the
// drivers sent, a copy of the workload's table. They run in this process
// after the servers have stopped, each call under a benchmark span.

// probeUnits bounds how many of the workload's units a probe replays.
const probeUnits = 200

// allVisible reads every committed version.
var allVisible = storage.Snapshot{CSN: ^uint64(0) - 1}

// tableReader is an eq.CursorReader over a catalog: the access paths a
// grounding round has, without the engine around them.
type tableReader struct{ cat *storage.Catalog }

func (r tableReader) Scan(table string) ([]types.Tuple, error) {
	t, err := r.cat.Get(table)
	if err != nil {
		return nil, err
	}
	return t.AllAsOf(allVisible), nil
}

func (r tableReader) CanProbe(table string, cols []int) bool {
	t, err := r.cat.Get(table)
	return err == nil && t.HasIndexForCols(cols)
}

func (r tableReader) Probe(table string, cols []int, vals []types.Value) ([]types.Tuple, error) {
	t, err := r.cat.Get(table)
	if err != nil {
		return nil, err
	}
	return t.MatchAsOf(allVisible, cols, vals)
}

func (r tableReader) ScanCursor(table string) (eq.RowCursor, error) {
	t, err := r.cat.Get(table)
	if err != nil {
		return nil, err
	}
	return t.ScanCursorAsOf(allVisible), nil
}

func (r tableReader) ProbeCursor(table string, cols []int, vals []types.Value) (eq.RowCursor, error) {
	t, err := r.cat.Get(table)
	if err != nil {
		return nil, err
	}
	return t.ProbeCursor(allVisible, cols, vals)
}

// compileQuery extracts and compiles the entangled query of a pair script.
func compileQuery(cat sql.Catalog, script string) (*eq.Query, error) {
	stmts, err := sql.Parse(script + "\nSET @probe = 0;")
	if err != nil {
		return nil, err
	}
	// A session learns its catalog only through Exec; the SET statement is
	// the one that executes without a transaction.
	s := sql.NewSession()
	if _, err := s.Exec(nil, cat, stmts[len(stmts)-1]); err != nil {
		return nil, err
	}
	for _, st := range stmts {
		if es, ok := st.(*sql.EntangledSelectStmt); ok {
			q, _, err := s.CompileEntangled(es)
			return q, err
		}
	}
	return nil, fmt.Errorf("no entangled query in script")
}

// drain pulls a cursor to its end and returns the rows seen.
func drain(c eq.RowCursor) int {
	n := 0
	var buf []types.Tuple
	for {
		rows, err := c.Next(buf[:0], 256)
		if err != nil || len(rows) == 0 {
			return n
		}
		n += len(rows)
		buf = rows
	}
}

// dir is the run's own scratch directory.
func probeLayers(cfg runConfig, dir string, states []*driveState, lm map[string]metric, log *spanLog) error {
	sp := cfg.sp
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

	// The workload's own inputs: scripts one driver sent, oldest first.
	var pairs []pairUnit
	var stmts []stmt
	if sp.isPair() {
		for i := 0; i < len(states[0].groups) && i < probeUnits; i++ {
			pairs = append(pairs, states[0].groups[i].u)
		}
	} else {
		g := newMixGen(sp, cfg.seed, 0)
		for i := 0; i < 10*probeUnits; i++ {
			stmts = append(stmts, g.next())
		}
	}
	units := len(pairs) + len(stmts)
	if units == 0 {
		return fmt.Errorf("layer probes: the window produced no unit to replay")
	}

	// wire: encode and decode the frames one unit puts on the connection.
	codec, err := wire.CodecByName(wire.CodecBinary)
	if err != nil {
		return err
	}
	var frameUS, frameBytes []float64
	roundTrip := func(req wire.Request, resp wire.Response) (int, error) {
		buf, err := codec.AppendRequestFrame(nil, &req)
		if err != nil {
			return 0, err
		}
		var gotReq wire.Request
		if err := codec.DecodeRequest(buf[4:], &gotReq); err != nil {
			return 0, err
		}
		n := len(buf)
		if buf, err = codec.AppendResponseFrame(buf[:0], &resp); err != nil {
			return 0, err
		}
		var gotResp wire.Response
		return n + len(buf), codec.DecodeResponse(buf[4:], &gotResp)
	}
	committed := &wire.Outcome{Status: entangle.StatusCommitted.String()}
	for i := 0; i < units; i++ {
		bytes := 0
		var ferr error
		took := log.timed("wire.frame", i, func() {
			add := func(req wire.Request, resp wire.Response) {
				n, err := roundTrip(req, resp)
				if bytes += n; err != nil {
					ferr = err
				}
			}
			if sp.isPair() {
				for k, m := range []member{pairs[i].a, pairs[i].b} {
					id := uint64(4*i + 2*k)
					add(wire.Request{ID: id, Op: wire.OpSubmit, SQL: m.script, Idem: id}, wire.Response{ID: id, OK: true, Handle: id})
					add(wire.Request{ID: id + 1, Op: wire.OpWait, Handle: id, Idem: id + 1}, wire.Response{ID: id + 1, OK: true, Outcome: committed})
				}
			} else {
				res := &wire.Result{RowsAffected: 1}
				if stmts[i].kind == kindSelect {
					res = &wire.Result{Columns: []string{"n"}, Rows: []types.Tuple{{types.Int(stmts[i].want)}}}
				}
				add(wire.Request{ID: uint64(i), Op: wire.OpExec, SQL: stmts[i].sql, Idem: uint64(i)}, wire.Response{ID: uint64(i), OK: true, Result: res})
			}
		})
		if ferr != nil {
			return fmt.Errorf("wire probe: %w", ferr)
		}
		frameUS, frameBytes = append(frameUS, us(took)), append(frameBytes, float64(bytes))
	}
	lm["wire.frame_us"] = metric{median(frameUS), "us"}
	lm["wire.bytes_per_unit"] = metric{median(frameBytes), "B"}

	// An in-process engine with the workload's tables: the unit without
	// TCP, and the table copy the eq and storage probes read.
	db, err := entangle.Open(entangle.Options{Path: filepath.Join(dir, "inproc.wal"), RunFrequency: 1, GroundCache: true})
	if err != nil {
		return err
	}
	defer db.Close()
	ddl, rows, index := sp.tables()
	if err := db.ExecDDL(ddl); err != nil {
		return fmt.Errorf("in-process load: %w", err)
	}
	for lo := 0; lo < len(rows); lo += 500 {
		hi := lo + 500
		if hi > len(rows) {
			hi = len(rows)
		}
		if _, err := db.Exec(strings.Join(rows[lo:hi], "\n")); err != nil {
			return fmt.Errorf("in-process load: %w", err)
		}
	}
	if err := db.ExecDDL(index); err != nil {
		return fmt.Errorf("in-process load: %w", err)
	}
	table, probeCol := "Flights", "dest"
	switch {
	case !sp.isPair():
		table, probeCol = "Notes", "id"
	case !sp.indexDest:
		probeCol = "fno"
	}

	// sql: parse and compile the workload's scripts.
	var compileUS []float64
	for i := 0; i < units; i++ {
		var cerr error
		compileUS = append(compileUS, us(log.timed("sql.compile", i, func() {
			if sp.isPair() {
				_, cerr = sql.BuildProgram(db.Catalog(), pairs[i].b.script)
			} else {
				_, cerr = sql.Parse(stmts[i].sql)
			}
		})))
		if cerr != nil {
			return fmt.Errorf("sql probe: %w", cerr)
		}
	}
	lm["sql.compile_us"] = metric{median(compileUS), "us"}

	// core: the same units through the in-process engine. Pending members
	// are parked first, as in the workload; the probe stops after
	// probeUnits units or two seconds.
	pend := newPairGen(sp, cfg.seed+1, pendingDriver, nil)
	var pendUnits []pairUnit
	for i := 0; i < sp.pending; i++ {
		u := pend.next()
		if _, err := db.SubmitScript(u.a.script); err != nil {
			return err
		}
		pendUnits = append(pendUnits, u)
	}
	var unitUS []float64
	stopAt := time.Now().Add(2 * time.Second)
	for i := 0; i < units && time.Now().Before(stopAt); i++ {
		var uerr error
		if sp.isPair() {
			ha, err := db.SubmitScript(pairs[i].a.script)
			if err != nil {
				return err
			}
			unitUS = append(unitUS, us(log.timed("core.inproc_unit", i, func() {
				hb, err := db.SubmitScript(pairs[i].b.script)
				if err != nil {
					uerr = err
					return
				}
				if oa, ob := ha.Wait(), hb.Wait(); oa.Status != entangle.StatusCommitted || ob.Status != entangle.StatusCommitted {
					uerr = fmt.Errorf("in-process pair: %v/%v", oa.Status, ob.Status)
				}
			})))
		} else {
			unitUS = append(unitUS, us(log.timed("core.inproc_unit", i, func() { _, uerr = db.Exec(stmts[i].sql) })))
		}
		if uerr != nil {
			return fmt.Errorf("core probe: %w", uerr)
		}
	}
	lm["core.inproc_unit_us"] = metric{median(unitUS), "us"}

	// eq: ground the compiled query over the table copy; solve over the
	// groundings of the pending queries plus the live pair.
	reader := tableReader{db.Catalog()}
	groundUS, solveUS := []float64{0}, []float64{0}
	if sp.isPair() {
		groundUS, solveUS = nil, nil
		var parked [][]*eq.Grounding
		for _, u := range pendUnits {
			q, err := compileQuery(db.Catalog(), u.a.script)
			if err != nil {
				return err
			}
			g, err := eq.Ground(q, reader, 0)
			if err != nil {
				return err
			}
			parked = append(parked, g)
		}
		for i := 0; i < len(pairs) && time.Now().Before(stopAt.Add(2*time.Second)); i++ {
			var live [][]*eq.Grounding
			for _, m := range []member{pairs[i].a, pairs[i].b} {
				q, err := compileQuery(db.Catalog(), m.script)
				if err != nil {
					return err
				}
				var g []*eq.Grounding
				var gerr error
				groundUS = append(groundUS, us(log.timed("eq.ground", i, func() { g, gerr = eq.Ground(q, reader, 0) })))
				if gerr != nil || len(g) == 0 {
					return fmt.Errorf("eq probe: %d groundings, %v", len(g), gerr)
				}
				live = append(live, g)
			}
			all := append(append([][]*eq.Grounding{}, parked...), live...)
			var chosen []int
			solveUS = append(solveUS, us(log.timed("eq.solve", i, func() { chosen = eq.Solve(all) })))
			if n := len(chosen); n < 2 || chosen[n-1] < 0 || chosen[n-2] < 0 {
				return fmt.Errorf("eq probe: solve left the live pair unanswered: %v", chosen)
			}
		}
	}
	lm["eq.ground_us"] = metric{median(groundUS), "us"}
	lm["eq.solve_us"] = metric{median(solveUS), "us"}

	// storage: a full scan and an index probe of the same table.
	tbl, err := db.Catalog().Get(table)
	if err != nil {
		return err
	}
	var scanRate, probeUS []float64
	for i := 0; i < 20; i++ {
		rows := 0
		took := log.timed("storage.scan", i, func() { rows = drain(tbl.ScanCursorAsOf(allVisible)) })
		scanRate = append(scanRate, float64(rows)/took.Seconds())
	}
	col := tbl.Schema().Index(probeCol)
	for i := 0; i < units; i++ {
		key := types.Int(int64(i%100 + 1))
		if probeCol == "dest" {
			key = types.Str(destName(pairs[i%len(pairs)].dest))
		}
		var perr error
		rows := 0
		probeUS = append(probeUS, us(log.timed("storage.probe", i, func() {
			c, err := tbl.ProbeCursor(allVisible, []int{col}, []types.Value{key})
			if err != nil {
				perr = err
				return
			}
			rows = drain(c)
		})))
		if perr != nil || rows == 0 {
			return fmt.Errorf("storage probe: %d rows, %v", rows, perr)
		}
	}
	lm["storage.scan_rows_per_s"] = metric{median(scanRate), "1/s"}
	lm["storage.probe_us"] = metric{median(probeUS), "us"}

	// lock, txn, wal: a fresh manager and log, as a commit uses them.
	locks := lock.New(0)
	lm["lock.acquire_us"] = metric{medianTime(2000, func() {
		_ = locks.Acquire(1, lock.TableRow{Table: "T", Row: 7}, lock.X)
		locks.ReleaseAll(1)
	}), "us"}
	wlog, err := wal.Open(filepath.Join(dir, "probe.wal"), wal.Options{})
	if err != nil {
		return err
	}
	defer wlog.Close()
	row := types.Tuple{types.Str("s1_0_0a"), types.Int(122), types.MustDate("2011-05-03"), types.Int(0)}
	var flushUS []float64
	for i := 0; i < 1000; i++ {
		batch := []*wal.Record{wal.Insert(wal.TxID(i), "Bookings", storage.RowID(i), row), wal.Commit(wal.TxID(i), uint64(i))}
		var werr error
		flushUS = append(flushUS, us(log.timed("wal.flush", i, func() { werr = wlog.AppendBatch(batch) })))
		if werr != nil {
			return fmt.Errorf("wal probe: %w", werr)
		}
	}
	lm["wal.flush_us"] = metric{median(flushUS), "us"}
	cat := storage.NewCatalog()
	tm := txn.NewManager(cat, lock.New(0), wlog)
	if _, err := tm.CreateTable("Bookings", types.NewSchema(
		types.Column{Name: "name", Type: types.KindString}, types.Column{Name: "fno", Type: types.KindInt},
		types.Column{Name: "fdate", Type: types.KindDate}, types.Column{Name: "batch", Type: types.KindInt})); err != nil {
		return err
	}
	var commitUS []float64
	for i := 0; i < 1000; i++ {
		var terr error
		commitUS = append(commitUS, us(log.timed("txn.commit", i, func() {
			tx, err := tm.Begin(txn.Serializable)
			if err != nil {
				terr = err
				return
			}
			if _, terr = tx.Insert("Bookings", row); terr == nil {
				terr = tx.Commit()
			}
		})))
		if terr != nil {
			return fmt.Errorf("txn probe: %w", terr)
		}
	}
	lm["txn.commit_us"] = metric{median(commitUS), "us"}

	// dist: two offers that match; time until both prepares leave the
	// matchmaker. Only the cross-shard workload has offers to replay.
	lm["dist.match_us"] = metric{0, "us"}
	if sp.shards > 1 {
		send := &prepareSink{got: make(chan sentPrepare, 2)}
		mm := dist.New(dist.Options{Send: send})
		defer mm.Close()
		var matchUS []float64
		for i, u := range pairs {
			var offers []*dist.Offer
			for k, m := range []member{u.a, u.b} {
				q, err := compileQuery(db.Catalog(), m.script)
				if err != nil {
					return err
				}
				g, err := eq.Ground(q, reader, 0)
				if err != nil {
					return err
				}
				offers = append(offers, &dist.Offer{Node: fmt.Sprintf("n%d", k), Shard: k, ID: uint64(i + 1), Query: q,
					Grounds: g, Tables: []string{"Flights"}, Deadline: time.Now().Add(time.Minute)})
			}
			var got [2]sentPrepare
			matchUS = append(matchUS, us(log.timed("dist.match", i, func() {
				mm.AddOffer(offers[0])
				mm.AddOffer(offers[1])
				got[0], got[1] = <-send.got, <-send.got
			})))
			for _, s := range got {
				mm.HandleVote(dist.Vote{Group: s.p.Group, Offer: s.p.Offer, Node: s.node, Yes: true})
			}
		}
		lm["dist.match_us"] = metric{median(matchUS), "us"}
	}
	return nil
}

// prepareSink is the stub dist.Sender of the matchmaker probe.
type prepareSink struct{ got chan sentPrepare }

type sentPrepare struct {
	node string
	p    dist.Prepare
}

func (s *prepareSink) Prepare(node string, p dist.Prepare) error {
	s.got <- sentPrepare{node, p}
	return nil
}
func (s *prepareSink) Decide(string, dist.Decide) error { return nil }
