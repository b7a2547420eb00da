package storage

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/types"
)

// TestLookupUsesIndexInAnyColumnOrder: a lookup that spells an index's
// columns in another order still reads the index's bucket, not the table.
func TestLookupUsesIndexInAnyColumnOrder(t *testing.T) {
	tbl := NewTable("Flight", types.NewSchema(
		types.Column{Name: "source", Type: types.KindString},
		types.Column{Name: "destination", Type: types.KindString},
	))
	if err := tbl.CreateIndex("by_route", "source", "destination"); err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]string{{"NYC", "LA"}, {"LA", "NYC"}, {"NYC", "LA"}, {"SFO", "LA"}} {
		if _, err := tbl.Insert(types.Tuple{types.Str(r[0]), types.Str(r[1])}); err != nil {
			t.Fatal(err)
		}
	}
	scans := tbl.ScanCount()
	want, err := tbl.Lookup([]string{"source", "destination"}, types.Tuple{types.Str("NYC"), types.Str("LA")})
	if err != nil {
		t.Fatal(err)
	}
	got, err := tbl.Lookup([]string{"destination", "source"}, types.Tuple{types.Str("LA"), types.Str("NYC")})
	if err != nil {
		t.Fatal(err)
	}
	if n := tbl.ScanCount() - scans; n != 0 {
		t.Errorf("indexed lookups read the whole table %d times, want 0", n)
	}
	if len(want) != 2 || !slices.Equal(got, want) {
		t.Errorf("reordered lookup = %v, declared order = %v, want the same 2 rows", got, want)
	}
	if _, err := tbl.Lookup([]string{"destination"}, types.Tuple{types.Str("LA")}); err != nil {
		t.Fatal(err)
	}
	if n := tbl.ScanCount() - scans; n != 1 {
		t.Errorf("an unindexed lookup counted %d whole-table reads, want 1", n)
	}
}

// collidingKeys returns two unequal (Int, Int) keys with equal Tuple.Hash.
// Value.Hash folds an Int x into h as ((h^kind)*prime ^ x)*prime, so given
// two different first columns the second can be solved for.
func collidingKeys(t *testing.T) (a, b types.Tuple) {
	t.Helper()
	const prime = 1099511628211
	mix := func(first int64) uint64 {
		return (types.Int(first).Hash(types.HashSeed) ^ uint64(types.KindInt)) * prime
	}
	a = types.Tuple{types.Int(1), types.Int(10)}
	b = types.Tuple{types.Int(2), types.Int(int64(mix(1) ^ mix(2) ^ 10))}
	if a.Equal(b) || a.Hash() != b.Hash() {
		t.Fatalf("keys %v and %v do not collide", a, b)
	}
	return a, b
}

// TestIndexHashCollisions: rows whose keys share a bucket are told apart by
// Equal on every read path, and rolling back a version whose key collides
// with the row's surviving one keeps the row's bucket entry.
func TestIndexHashCollisions(t *testing.T) {
	a, b := collidingKeys(t)
	tbl := NewTable("T", types.NewSchema(
		types.Column{Name: "x", Type: types.KindInt},
		types.Column{Name: "y", Type: types.KindInt},
	))
	if err := tbl.CreateIndex("by_xy", "x", "y"); err != nil {
		t.Fatal(err)
	}
	idA, _ := tbl.Insert(a)
	idB, _ := tbl.Insert(b)
	if n := len(tbl.indexes[0].buckets); n != 1 {
		t.Fatalf("%d buckets, want the two keys in one", n)
	}
	check := func(step string) {
		t.Helper()
		for _, c := range []struct {
			key types.Tuple
			id  RowID
		}{{a, idA}, {b, idB}} {
			if ids, err := tbl.Lookup([]string{"x", "y"}, c.key); err != nil || !slices.Equal(ids, []RowID{c.id}) {
				t.Errorf("%s: Lookup(%v) = %v, %v; want [%d]", step, c.key, ids, err, c.id)
			}
			rows, err := tbl.MatchAsOf(Snapshot{}, []int{0, 1}, c.key)
			if err != nil || len(rows) != 1 || !rows[0].Equal(c.key) {
				t.Errorf("%s: MatchAsOf(%v) = %v, %v", step, c.key, rows, err)
			}
			cur, err := tbl.ProbeCursor(Snapshot{}, []int{1, 0}, []types.Value{c.key[1], c.key[0]})
			if err != nil {
				t.Fatal(err)
			}
			if rows := drainProbe(t, cur, 4); len(rows) != 1 || !rows[0].Equal(c.key) {
				t.Errorf("%s: ProbeCursor(%v) = %v", step, c.key, rows)
			}
		}
	}
	check("two rows")
	// Row A gains an uncommitted version under the colliding key b, which
	// is then rolled back: the kept version still hashes to the bucket.
	if _, err := tbl.UpdateTx(7, idA, b); err != nil {
		t.Fatal(err)
	}
	tbl.Rollback(7, idA)
	check("after rollback")
}

// TestUndeclaredIndex: a probe's index stays out of every declared-index
// view, and CREATE INDEX over the same column set declares it instead of
// building a second one.
func TestUndeclaredIndex(t *testing.T) {
	tbl := cursorTable(t)
	probe := func(cols []int, vals ...types.Value) []types.Tuple {
		t.Helper()
		cur, err := tbl.ProbeCursor(Snapshot{CSN: 99}, cols, vals)
		if err != nil {
			t.Fatal(err)
		}
		return drainProbe(t, cur, 8)
	}
	if rows := probe([]int{2}, types.Str("LA")); len(rows) != 1 {
		t.Fatalf("LA rows = %v, want 1", rows)
	}
	if len(tbl.indexes) != 1 || tbl.indexes[0].name != "" {
		t.Fatalf("indexes after a probe: %+v, want one undeclared", tbl.indexes)
	}
	if tbl.HasIndexForCols([]int{2}) || tbl.HasIndexOn("dest") || len(tbl.Indexes()) != 0 {
		t.Error("the undeclared index is visible as declared")
	}
	scans := tbl.ScanCount()
	if err := tbl.CreateIndex("by_dest", "dest"); err != nil {
		t.Fatal(err)
	}
	if n := tbl.ScanCount() - scans; n != 0 || len(tbl.indexes) != 1 {
		t.Errorf("CREATE INDEX read the table %d times and left %d indexes, want 0 and 1", n, len(tbl.indexes))
	}
	if !tbl.HasIndexForCols([]int{2}) || !tbl.HasIndexOn("dest") {
		t.Error("the adopted index is not declared")
	}
	if err := tbl.InsertAtCSN(RowID(60), types.Tuple{types.Int(400), types.MustDate("2011-05-07"), types.Str("LA")}, 30); err != nil {
		t.Fatal(err)
	}
	if rows := probe([]int{2}, types.Str("LA")); len(rows) != 2 {
		t.Errorf("LA rows after an insert = %v, want 2", rows)
	}

	// Declaring the same set in another column order re-keys the one index.
	probe([]int{0, 2}, types.Int(400), types.Str("LA"))
	if err := tbl.CreateIndex("by_dest_fno", "dest", "fno"); err != nil {
		t.Fatal(err)
	}
	want := []IndexInfo{{"by_dest", []string{"dest"}}, {"by_dest_fno", []string{"dest", "fno"}}}
	if got := tbl.Indexes(); len(tbl.indexes) != 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("Indexes() = %v over %d indexes, want %v over 2", got, len(tbl.indexes), want)
	}
	if rows := probe([]int{0, 2}, types.Int(400), types.Str("LA")); len(rows) != 1 {
		t.Errorf("re-keyed index probe = %v, want 1 row", rows)
	}
}

// TestProbeIndexBuiltOnceAcrossGoroutines: probes racing on one unindexed
// column set build a single undeclared index (one whole-table read) between
// them. Run under -race it checks the build's re-check under the table's
// write lock.
func TestProbeIndexBuiltOnceAcrossGoroutines(t *testing.T) {
	tbl := cursorTable(t)
	scans := tbl.ScanCount()
	cursors := make([]*ProbeCursor, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range cursors {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			cur, err := tbl.ProbeCursor(Snapshot{CSN: 99}, []int{2}, []types.Value{types.Str("LA")})
			if err != nil {
				t.Error(err)
				return
			}
			cursors[i] = cur
		}()
	}
	close(start)
	wg.Wait()
	if n := tbl.ScanCount() - scans; n != 1 || len(tbl.indexes) != 1 {
		t.Fatalf("%d probes read the table %d times into %d indexes, want 1 and 1", len(cursors), n, len(tbl.indexes))
	}
	for i, cur := range cursors {
		if cur == nil {
			continue // its error is reported above
		}
		if rows := drainProbe(t, cur, 8); len(rows) != 1 {
			t.Errorf("probe %d: LA rows = %v, want 1", i, rows)
		}
	}
}

// TestIndexMaintenanceZeroAlloc: listing a fresh id in a bucket with room,
// and finding a declared index's candidates, allocate nothing — no key
// tuple, no key string.
func TestIndexMaintenanceZeroAlloc(t *testing.T) {
	tbl := NewTable("Flights", flightsSchema())
	if err := tbl.CreateIndex("by_dest", "dest"); err != nil {
		t.Fatal(err)
	}
	row := types.Tuple{types.Int(1), types.Date(0), types.Str("LA")}
	for i := 0; i < 64; i++ {
		if _, err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	ix := tbl.indexes[0]
	h := ix.hash(row)
	ix.buckets[h] = slices.Grow(ix.buckets[h], 1000)
	next := RowID(1000)
	if allocs := testing.AllocsPerRun(100, func() { ix.insert(next, row); next++ }); allocs != 0 {
		t.Errorf("hashIndex.insert of a fresh id allocates %.1f objects, want 0", allocs)
	}
	cols, vals := []int{2}, []types.Value{types.Str("LA")}
	if allocs := testing.AllocsPerRun(100, func() { tbl.candidates(cols, vals) }); allocs != 0 {
		t.Errorf("an indexed candidate lookup allocates %.1f objects, want 0", allocs)
	}
}
