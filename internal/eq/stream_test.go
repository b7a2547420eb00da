package eq

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/types"
)

// cursorReader wraps probeReader with the CursorReader batch-pull surface,
// counting cursor opens and rows pulled — the test double for the engine's
// cursor-serving groundReader.
type cursorReader struct {
	probeReader
	scanCursors  int
	probeCursors int
	rowsPulled   int
}

type countingCursor struct {
	inner sliceCursor
	r     *cursorReader
}

func (c *countingCursor) Next(buf []types.Tuple, max int) ([]types.Tuple, error) {
	before := len(buf)
	out, err := c.inner.Next(buf, max)
	c.r.rowsPulled += len(out) - before
	return out, err
}

func (c *countingCursor) Rewind() { c.inner.Rewind() }

func (r *cursorReader) ScanCursor(table string) (RowCursor, error) {
	rows, err := r.MapReader.Scan(table)
	if err != nil {
		return nil, err
	}
	r.scanCursors++
	return &countingCursor{inner: sliceCursor{rows: rows}, r: r}, nil
}

func (r *cursorReader) ProbeCursor(table string, cols []int, vals []types.Value) (RowCursor, error) {
	rows, err := r.probeReader.Probe(table, cols, vals)
	if err != nil {
		return nil, err
	}
	r.probeCursors++
	return &countingCursor{inner: sliceCursor{rows: rows}, r: r}, nil
}

// randomCase builds one randomized (relations, indexes, query) instance.
// Values are drawn from a tiny domain (with occasional NULLs, and Dates
// that Equal the Ints of the same payload) so joins, duplicate groundings,
// and constraint rejections all actually occur.
func randomCase(rng *rand.Rand) (MapReader, map[string][][]int, *Query) {
	randVal := func() types.Value {
		switch rng.Intn(12) {
		case 0:
			return types.Null()
		case 1:
			return types.Date(int64(rng.Intn(4)))
		}
		return types.Int(int64(rng.Intn(4)))
	}
	nRel := 1 + rng.Intn(3)
	db := make(MapReader, nRel)
	arity := make(map[string]int, nRel)
	indexes := make(map[string][][]int)
	names := make([]string, 0, nRel)
	for i := 0; i < nRel; i++ {
		name := fmt.Sprintf("R%d", i)
		names = append(names, name)
		k := 1 + rng.Intn(3)
		arity[name] = k
		rows := make([]types.Tuple, rng.Intn(10))
		for j := range rows {
			row := make(types.Tuple, k)
			for c := range row {
				row[c] = randVal()
			}
			rows[j] = row
		}
		db[name] = rows
		if rng.Intn(2) == 0 {
			// One random index over 1..k distinct columns.
			perm := rng.Perm(k)
			indexes[name] = [][]int{perm[:1+rng.Intn(k)]}
		}
	}
	vars := []string{"a", "b", "c", "d"}
	randTerm := func(pool []string) Term {
		if len(pool) > 0 && rng.Intn(10) < 6 {
			return V(pool[rng.Intn(len(pool))])
		}
		return C(types.Int(int64(rng.Intn(4))))
	}
	body := make([]Atom, 1+rng.Intn(3))
	for i := range body {
		rel := names[rng.Intn(len(names))]
		args := make([]Term, arity[rel])
		for j := range args {
			args[j] = randTerm(vars)
		}
		body[i] = Atom{Rel: rel, Args: args}
	}
	// Half the multi-atom bodies join every later atom to the first through
	// one of its variables, so inner levels are bound by outer ones.
	var outer []string
	for _, t := range body[0].Args {
		if t.IsVar {
			outer = append(outer, t.Name)
		}
	}
	if len(outer) > 0 && rng.Intn(2) == 0 {
		for _, a := range body[1:] {
			a.Args[rng.Intn(len(a.Args))] = V(outer[rng.Intn(len(outer))])
		}
	}
	bodyVars := make(map[string]bool)
	for _, a := range body {
		a.vars(bodyVars)
	}
	var bvs []string
	for _, v := range vars {
		if bodyVars[v] {
			bvs = append(bvs, v)
		}
	}
	atomOver := func(rel string, n int) Atom {
		args := make([]Term, n)
		for j := range args {
			args[j] = randTerm(bvs)
		}
		return Atom{Rel: rel, Args: args}
	}
	q := &Query{
		Head:   []Atom{atomOver("H", 1+rng.Intn(2))},
		Body:   body,
		Choose: 1,
	}
	if rng.Intn(2) == 0 {
		q.Post = []Atom{atomOver("P", 1+rng.Intn(2))}
	}
	for i := rng.Intn(3); i > 0; i-- {
		q.Where = append(q.Where, Constraint{
			Left:  randTerm(bvs),
			Op:    CmpOp(rng.Intn(6)),
			Right: randTerm(bvs),
		})
	}
	return db, indexes, q
}

func assertSameSequence(t *testing.T, caseNo int, label string, got, want []*Grounding) {
	t.Helper()
	gk, wk := groundingKeys(got), groundingKeys(want)
	if len(gk) != len(wk) {
		t.Fatalf("case %d %s: %d groundings, want %d", caseNo, label, len(gk), len(wk))
	}
	for i := range gk {
		if gk[i] != wk[i] {
			t.Fatalf("case %d %s: grounding %d = %q, want %q", caseNo, label, i, gk[i], wk[i])
		}
	}
}

// TestGroundStreamingMatchesMaterializedRandomized is the streaming ≡
// materialized property test: over randomized relations and queries, the
// streaming pipeline must enumerate byte-identical groundings in identical
// order to the materialized reference under every reader fixture (unindexed
// slices whose probes filter, indexed slices, counting cursors) and batch
// size, capped enumerations must be exact prefixes, and index-routed plans
// must agree with scan plans on the grounding set. The reference scans every
// level no index covers, so each unindexed probe — the path the engine's
// shared partitions serve — is checked against a plain filtered scan.
func TestGroundStreamingMatchesMaterializedRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	innerProbes := 0 // cases whose unindexed probes re-opened per outer row
	for caseNo := 0; caseNo < 300; caseNo++ {
		db, indexes, q := randomCase(rng)

		// Scan-only plan: materialized reference vs streaming over a plain
		// Reader and over a cursor reader with no indexes, across batch sizes.
		ref, err := GroundMaterialized(q, db, 0)
		if err != nil {
			t.Fatalf("case %d: reference: %v", caseNo, err)
		}
		plain, err := Ground(q, db, 0)
		if err != nil {
			t.Fatalf("case %d: plain: %v", caseNo, err)
		}
		assertSameSequence(t, caseNo, "filtered-probe MapReader", plain, ref)
		for _, batch := range []int{1, 3, DefaultBatchRows} {
			cr := &cursorReader{probeReader: probeReader{MapReader: db}}
			got, err := GroundWith(q, cr, GroundOptions{BatchRows: batch})
			if err != nil {
				t.Fatalf("case %d batch %d: %v", caseNo, batch, err)
			}
			assertSameSequence(t, caseNo, fmt.Sprintf("cursor batch=%d", batch), got, ref)
			if batch == 1 && cr.probeCursors > 1 {
				innerProbes++
			}
		}

		// Index-routed plan: the plan may legally reorder atoms (probe-able
		// tie-break), so compare materialized vs streaming under the SAME
		// capabilities for order, and against the scan plan for set equality.
		refIdx, err := GroundMaterialized(q, &probeReader{MapReader: db, indexes: indexes}, 0)
		if err != nil {
			t.Fatalf("case %d: indexed reference: %v", caseNo, err)
		}
		idxStream, err := Ground(q, &probeReader{MapReader: db, indexes: indexes}, 0)
		if err != nil {
			t.Fatalf("case %d: indexed stream: %v", caseNo, err)
		}
		assertSameSequence(t, caseNo, "indexed reader", idxStream, refIdx)
		crIdx := &cursorReader{probeReader: probeReader{MapReader: db, indexes: indexes}}
		cursorStream, err := GroundWith(q, crIdx, GroundOptions{BatchRows: 1 + rng.Intn(5)})
		if err != nil {
			t.Fatalf("case %d: indexed cursor stream: %v", caseNo, err)
		}
		assertSameSequence(t, caseNo, "indexed cursor reader", cursorStream, refIdx)

		set := make(map[string]bool, len(ref))
		for _, k := range groundingKeys(ref) {
			set[k] = true
		}
		if len(refIdx) != len(ref) {
			t.Fatalf("case %d: indexed plan found %d groundings, scan plan %d", caseNo, len(refIdx), len(ref))
		}
		for _, k := range groundingKeys(refIdx) {
			if !set[k] {
				t.Fatalf("case %d: indexed plan grounding %q missing from scan plan", caseNo, k)
			}
		}

		// Cap = exact prefix of the uncapped enumeration, under both
		// executors.
		if len(ref) > 1 {
			k := 1 + rng.Intn(len(ref))
			capped, err := Ground(q, db, k)
			if err != nil {
				t.Fatalf("case %d: capped: %v", caseNo, err)
			}
			assertSameSequence(t, caseNo, fmt.Sprintf("cap=%d", k), capped, ref[:k])
			cappedMat, err := GroundMaterialized(q, db, k)
			if err != nil {
				t.Fatalf("case %d: capped materialized: %v", caseNo, err)
			}
			assertSameSequence(t, caseNo, fmt.Sprintf("cap=%d materialized", k), cappedMat, ref[:k])
		}
	}
	if innerProbes < 30 {
		t.Errorf("only %d of 300 cases probed an inner level per outer row", innerProbes)
	}
}

// TestGroundPinnedPathsMatchCursorReader re-checks the pinned paper queries
// through the cursor path: the Figure 1 pair query and the Flights⋈Airlines
// join must enumerate identically through batch cursors.
func TestGroundPinnedPathsMatchCursorReader(t *testing.T) {
	for _, q := range []*Query{mickeyQuery(), minnieQuery()} {
		want, err := GroundMaterialized(q, paperDB(), 0)
		if err != nil {
			t.Fatal(err)
		}
		cr := &cursorReader{probeReader: probeReader{MapReader: paperDB()}}
		got, err := GroundWith(q, cr, GroundOptions{BatchRows: 2})
		if err != nil {
			t.Fatal(err)
		}
		assertSameSequence(t, 0, q.String(), got, want)
		if cr.scanCursors+cr.probeCursors == 0 {
			t.Error("cursor reader was not used")
		}
	}
}

// TestGroundCapTerminatesCrossProduct is the early-termination regression:
// a three-way self-cross-product over 2000 rows (8e9 combinations) under a
// cap of 5 must complete by pulling only a handful of batches — the
// pipeline stops the instant the cap is hit instead of enumerating (or
// materializing) the product.
func TestGroundCapTerminatesCrossProduct(t *testing.T) {
	const n = 2000
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i))}
	}
	cr := &cursorReader{probeReader: probeReader{MapReader: MapReader{"Big": rows}}}
	q := &Query{
		Head: []Atom{{Rel: "H", Args: []Term{V("a"), V("b"), V("c")}}},
		Body: []Atom{
			{Rel: "Big", Args: []Term{V("a")}},
			{Rel: "Big", Args: []Term{V("b")}},
			{Rel: "Big", Args: []Term{V("c")}},
		},
		Choose: 1,
	}
	var stats StreamStats
	gs, err := GroundWith(q, cr, GroundOptions{MaxGroundings: 5, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 5 {
		t.Fatalf("groundings = %d, want 5", len(gs))
	}
	// One batch per level suffices for 5 emissions; anything near the table
	// size (let alone the product) means the cap did not stop the pipeline.
	if limit := 3 * DefaultBatchRows; cr.rowsPulled > limit {
		t.Errorf("pulled %d rows for a cap-5 enumeration, want <= %d", cr.rowsPulled, limit)
	}
	if stats.Rows() != int64(cr.rowsPulled) {
		t.Errorf("StreamStats.Rows = %d, cursor pulls = %d", stats.Rows(), cr.rowsPulled)
	}
	if peak := stats.PeakBatchRows(); peak > int64(3*DefaultBatchRows) {
		t.Errorf("peak batch rows = %d, want <= %d", peak, 3*DefaultBatchRows)
	}
}

// TestGroundStreamStatsBounded: grounding a relation through cursors keeps
// the resident batch high-water mark at the batch size, not the table size,
// while still streaming every row through the pipeline. The filter is a
// range test, not an equality, so the level scans rather than probes.
func TestGroundStreamStatsBounded(t *testing.T) {
	const n, batch = 5000, 64
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i)), types.Str("LA")}
	}
	cr := &cursorReader{probeReader: probeReader{MapReader: MapReader{"Flights": rows}}}
	q := &Query{
		Head:   []Atom{{Rel: "H", Args: []Term{V("f")}}},
		Body:   []Atom{{Rel: "Flights", Args: []Term{V("f"), V("d")}}},
		Where:  []Constraint{{Left: V("d"), Op: OpGt, Right: CStr("Paris")}},
		Choose: 1,
	}
	var stats StreamStats
	gs, err := GroundWith(q, cr, GroundOptions{BatchRows: batch, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 0 {
		t.Fatalf("groundings = %d, want 0 (no rows past Paris)", len(gs))
	}
	if stats.Rows() != n {
		t.Errorf("rows streamed = %d, want %d", stats.Rows(), n)
	}
	if peak := stats.PeakBatchRows(); peak != batch {
		t.Errorf("peak batch rows = %d, want %d", peak, batch)
	}
}

// TestGroundPullPathZeroAllocWhenDisabled pins the observability tax of
// the streaming pull loop at exactly zero when metrics are off: with nil
// Stats and nil PullDur, a steady-state open/refill cycle (cursor cached,
// batch buffers at capacity) must not allocate. This is the gate that
// keeps a metrics-disabled engine byte-for-byte as cheap as before the
// instrumentation existed — no time.Now, no histogram, no garbage.
func TestGroundPullPathZeroAllocWhenDisabled(t *testing.T) {
	rows := make([]types.Tuple, 256)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i % 7))}
	}
	db := MapReader{"R": rows}
	q := &Query{
		Head:   []Atom{{Rel: "H", Args: []Term{V("a")}}},
		Body:   []Atom{{Rel: "R", Args: []Term{V("a")}}},
		Choose: 1,
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	plan := planQuery(q, db)
	s := newGroundStream(plan, db, GroundOptions{BatchRows: 64})
	drain := func() {
		if err := s.open(0); err != nil {
			panic(err)
		}
		for {
			more, err := s.refill(0)
			if err != nil {
				panic(err)
			}
			if !more {
				return
			}
		}
	}
	drain() // warm up: cache the scan cursor, grow buffers to capacity
	if allocs := testing.AllocsPerRun(100, drain); allocs != 0 {
		t.Fatalf("disabled pull path allocated %v allocs per cursor drain, want 0", allocs)
	}
}
