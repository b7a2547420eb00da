package eq

import (
	"testing"

	"repro/internal/types"
)

// probeReader wraps MapReader with declared equality indexes, counting how
// many atom probes Ground routes through them — the test double for the
// engine's groundReader.
type probeReader struct {
	MapReader
	indexes map[string][][]int // table -> indexed column sets
	probes  int
	scans   int
}

func (r *probeReader) Scan(table string) ([]types.Tuple, error) {
	r.scans++
	return r.MapReader.Scan(table)
}

func colsEqualSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		found := false
		for _, y := range b {
			if x == y {
				found = true
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func (r *probeReader) CanProbe(table string, cols []int) bool {
	for _, ix := range r.indexes[table] {
		if colsEqualSet(ix, cols) {
			return true
		}
	}
	return false
}

// Probe serves an index probe (counted in probes) or, over a column set no
// index covers, a filtered scan (counted in scans).
func (r *probeReader) Probe(table string, cols []int, vals []types.Value) ([]types.Tuple, error) {
	if r.CanProbe(table, cols) {
		r.probes++
	} else {
		r.scans++
	}
	cur, err := r.MapReader.ProbeCursor(table, cols, vals)
	if err != nil {
		return nil, err
	}
	return cur.Next(nil, len(r.MapReader[table]))
}

// ScanCursor and ProbeCursor serve the same rows (and the same counters)
// through the pipeline's cursor surface.
func (r *probeReader) ScanCursor(table string) (RowCursor, error) {
	rows, err := r.Scan(table)
	if err != nil {
		return nil, err
	}
	return &sliceCursor{rows: rows}, nil
}

func (r *probeReader) ProbeCursor(table string, cols []int, vals []types.Value) (RowCursor, error) {
	rows, err := r.Probe(table, cols, vals)
	if err != nil {
		return nil, err
	}
	return &sliceCursor{rows: rows}, nil
}

func groundingKeys(gs []*Grounding) []string {
	out := make([]string, len(gs))
	for i, g := range gs {
		out[i] = g.key()
	}
	return out
}

// TestGroundIndexRoutedMatchesScan: routing equality-bound atoms through
// index probes must enumerate exactly the groundings the scan path does, in
// the same order — here on the paper's Flights⋈Airlines join with both the
// constraint-bound dest column and the join-bound fno column indexed.
func TestGroundIndexRoutedMatchesScan(t *testing.T) {
	ir := &probeReader{
		MapReader: paperDB(),
		indexes:   map[string][][]int{"Flights": {{2}}, "Airlines": {{0}}},
	}
	indexed, err := Ground(minnieQuery(), ir, 0)
	if err != nil {
		t.Fatal(err)
	}
	scanned, err := Ground(minnieQuery(), paperDB(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ik, sk := groundingKeys(indexed), groundingKeys(scanned)
	if len(ik) != len(sk) {
		t.Fatalf("indexed %d groundings vs scanned %d", len(ik), len(sk))
	}
	for i := range ik {
		if ik[i] != sk[i] {
			t.Errorf("grounding %d: indexed %q vs scanned %q", i, ik[i], sk[i])
		}
	}
	if ir.probes == 0 {
		t.Error("no atom was index-routed")
	}
	if ir.scans != 0 {
		t.Errorf("%d relations were still fully scanned", ir.scans)
	}
}

// TestGroundProbeFallback: with no matching index the planner falls back to
// scans and never calls Probe.
func TestGroundProbeFallback(t *testing.T) {
	ir := &probeReader{
		MapReader: paperDB(),
		indexes:   map[string][][]int{"Flights": {{0, 1}}}, // wrong column set
	}
	gs, err := Ground(mickeyQuery(), ir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 3 {
		t.Fatalf("groundings = %d, want 3", len(gs))
	}
	if ir.probes != 0 {
		t.Errorf("probes = %d, want 0", ir.probes)
	}
	if ir.scans == 0 {
		t.Error("fallback did not scan")
	}
}

// TestGroundBoundnessOrderingSetEquality: writing the body atoms in the
// "wrong" order (the join atom before the constrained one) must yield the
// same grounding set — ordering is a performance choice, never a semantic
// one.
func TestGroundBoundnessOrderingSetEquality(t *testing.T) {
	q := minnieQuery()
	rev := &Query{
		Head:   q.Head,
		Post:   q.Post,
		Body:   []Atom{q.Body[1], q.Body[0]},
		Where:  q.Where,
		Choose: 1,
	}
	a, err := Ground(q, paperDB(), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Ground(rev, paperDB(), 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, k := range groundingKeys(a) {
		seen[k] = true
	}
	if len(a) != len(b) {
		t.Fatalf("%d vs %d groundings", len(a), len(b))
	}
	for _, k := range groundingKeys(b) {
		if !seen[k] {
			t.Errorf("grounding %q missing from original order", k)
		}
	}
}

// TestEvaluateCachedGroundingsSkipReader: a Pending carrying cached
// groundings must be answered without consulting its Reader at all (nil
// Reader would otherwise be an error).
func TestEvaluateCachedGroundingsSkipReader(t *testing.T) {
	fresh, err := Ground(mickeyQuery(), paperDB(), 0)
	if err != nil {
		t.Fatal(err)
	}
	res := Evaluate([]Pending{
		{ID: 1, Query: mickeyQuery(), Cached: fresh, HasCached: true},
		{ID: 2, Query: minnieQuery(), Reader: paperDB()},
	}, EvalOptions{})
	if res.Answers[1].Status != Answered || res.Answers[2].Status != Answered {
		t.Fatalf("answers: %v / %v", res.Answers[1].Status, res.Answers[2].Status)
	}
	if got := res.Answers[1].Tuples[0].Args[1].Int64(); got != 122 {
		t.Errorf("cached answer chose flight %d, want 122", got)
	}
	// An empty cached result is a valid answer input too.
	res2 := Evaluate([]Pending{
		{ID: 1, Query: mickeyQuery(), HasCached: true},
		{ID: 2, Query: minnieQuery(), Reader: paperDB()},
	}, EvalOptions{})
	if res2.Answers[1].Status != EmptyAnswer {
		t.Errorf("empty cached groundings: %v, want EMPTY", res2.Answers[1].Status)
	}
}
