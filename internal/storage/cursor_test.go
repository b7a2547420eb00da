package storage

import (
	"testing"

	"repro/internal/types"
)

// cursorTable builds a table with a version-chain zoo: committed-at-load
// rows, rows committed at later CSNs, an update chain, a committed delete,
// and uncommitted writes of transaction 7 (an insert and a delete), so
// snapshot resolution has real work at every visibility boundary.
func cursorTable(t *testing.T) *Table {
	t.Helper()
	tbl := NewTable("Flights", flightsSchema())
	mustInsert := func(fno int64, date, dest string) RowID {
		id, err := tbl.Insert(types.Tuple{types.Int(fno), types.MustDate(date), types.Str(dest)})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	mustInsert(122, "2011-05-03", "LA")
	idB := mustInsert(123, "2011-05-03", "LA")
	idC := mustInsert(124, "2011-05-03", "LA")

	// Row B updated at CSN 10 (dest changes), row C deleted at CSN 20.
	if _, err := tbl.UpdateCSN(idB, types.Tuple{types.Int(123), types.MustDate("2011-05-03"), types.Str("Paris")}, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.DeleteCSN(idC, 20); err != nil {
		t.Fatal(err)
	}
	// A row born at CSN 15.
	if err := tbl.InsertAtCSN(RowID(50), types.Tuple{types.Int(235), types.MustDate("2011-05-05"), types.Str("Paris")}, 15); err != nil {
		t.Fatal(err)
	}
	// Transaction 7: an uncommitted insert and an uncommitted delete of A.
	if _, err := tbl.InsertTx(7, types.Tuple{types.Int(300), types.MustDate("2011-05-06"), types.Str("Tokyo")}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.DeleteTx(7, RowID(0)); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func collectAsOf(tbl *Table, snap Snapshot) []types.Tuple {
	var out []types.Tuple
	tbl.ScanAsOf(snap, func(_ RowID, row types.Tuple) bool {
		out = append(out, row.Clone())
		return true
	})
	return out
}

func drainCursor(t *testing.T, c *ScanCursor, batch int) []types.Tuple {
	t.Helper()
	var out []types.Tuple
	buf := make([]types.Tuple, 0, batch)
	for {
		got, err := c.Next(buf[:0], batch)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			return out
		}
		for _, row := range got {
			out = append(out, row.Clone())
		}
	}
}

func tuplesEqual(a, b []types.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestScanCursorMatchesScanAsOf: across snapshot CSNs, Self views, and
// batch sizes, batch pulls must enumerate exactly the rows ScanAsOf yields,
// in the same order.
func TestScanCursorMatchesScanAsOf(t *testing.T) {
	tbl := cursorTable(t)
	snaps := []Snapshot{
		{CSN: 0}, {CSN: 5}, {CSN: 10}, {CSN: 15}, {CSN: 20}, {CSN: 99},
		{CSN: 99, Self: 7}, // tx 7's view: own insert visible, own delete hides row A
	}
	for _, snap := range snaps {
		want := collectAsOf(tbl, snap)
		for _, batch := range []int{1, 2, 3, 7, 64} {
			got := drainCursor(t, tbl.ScanCursorAsOf(snap), batch)
			if !tuplesEqual(got, want) {
				t.Errorf("snap %+v batch %d: cursor %v, want %v", snap, batch, got, want)
			}
		}
	}
}

// TestScanCursorRewind: Rewind replays the identical enumeration without a
// fresh capture (no extra scan counted).
func TestScanCursorRewind(t *testing.T) {
	tbl := cursorTable(t)
	snap := Snapshot{CSN: 99}
	cur := tbl.ScanCursorAsOf(snap)
	first := drainCursor(t, cur, 2)
	scansAfterOpen := tbl.ScanCount()
	cur.Rewind()
	second := drainCursor(t, cur, 3)
	if !tuplesEqual(first, second) {
		t.Errorf("rewound enumeration %v != first %v", second, first)
	}
	if got := tbl.ScanCount(); got != scansAfterOpen {
		t.Errorf("Rewind recaptured: scans %d -> %d", scansAfterOpen, got)
	}
}

// TestScanCursorStableUnderConcurrentCommits: rows committed after the
// cursor's snapshot CSN — even mid-iteration — must never surface, and the
// pre-capture rows must all surface. (Chain ids are captured at open;
// visibility is resolved per batch.)
func TestScanCursorStableUnderConcurrentCommits(t *testing.T) {
	tbl := NewTable("Flights", flightsSchema())
	for i := int64(0); i < 10; i++ {
		if _, err := tbl.Insert(types.Tuple{types.Int(i), types.MustDate("2011-05-03"), types.Str("LA")}); err != nil {
			t.Fatal(err)
		}
	}
	snap := Snapshot{CSN: 5}
	cur := tbl.ScanCursorAsOf(snap)
	first, err := cur.Next(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	// A "later transaction" commits at CSN 8 > snap.CSN mid-iteration.
	if err := tbl.InsertAtCSN(RowID(100), types.Tuple{types.Int(999), types.MustDate("2011-05-09"), types.Str("NYC")}, 8); err != nil {
		t.Fatal(err)
	}
	rest := drainCursor(t, cur, 4)
	got := append(append([]types.Tuple{}, first...), rest...)
	if len(got) != 10 {
		t.Fatalf("saw %d rows, want the 10 pre-snapshot rows only", len(got))
	}
	for _, row := range got {
		if row[0].Int64() == 999 {
			t.Error("post-snapshot commit leaked into cursor")
		}
	}
}

func drainProbe(t *testing.T, c *ProbeCursor, batch int) []types.Tuple {
	t.Helper()
	var out []types.Tuple
	buf := make([]types.Tuple, 0, batch)
	for {
		got, err := c.Next(buf[:0], batch)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			return out
		}
		for _, row := range got {
			out = append(out, row.Clone())
		}
	}
}

// TestProbeCursorMatchesMatchAsOf: with and without a covering index, batch
// probe pulls must enumerate exactly MatchAsOf's rows in the same order.
func TestProbeCursorMatchesMatchAsOf(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		tbl := cursorTable(t)
		if indexed {
			if err := tbl.CreateIndex("by_dest", "dest"); err != nil {
				t.Fatal(err)
			}
		}
		for _, snap := range []Snapshot{{CSN: 5}, {CSN: 99}, {CSN: 99, Self: 7}} {
			for _, dest := range []string{"LA", "Paris", "Tokyo", "Nowhere"} {
				cols, vals := []int{2}, []types.Value{types.Str(dest)}
				want, err := tbl.MatchAsOf(snap, cols, vals)
				if err != nil {
					t.Fatal(err)
				}
				for _, batch := range []int{1, 3, 64} {
					cur, err := tbl.ProbeCursor(snap, cols, vals)
					if err != nil {
						t.Fatal(err)
					}
					got := drainProbe(t, cur, batch)
					if !tuplesEqual(got, want) {
						t.Errorf("indexed=%v snap %+v dest %s batch %d: cursor %v, want %v",
							indexed, snap, dest, batch, got, want)
					}
				}
			}
		}
	}
}

// TestProbeCursorRejectsBadArgs mirrors MatchAsOf's argument validation.
func TestProbeCursorRejectsBadArgs(t *testing.T) {
	tbl := cursorTable(t)
	if _, err := tbl.ProbeCursor(Snapshot{}, []int{0, 1}, []types.Value{types.Int(1)}); err == nil {
		t.Error("cols/vals arity mismatch accepted")
	}
	if _, err := tbl.ProbeCursor(Snapshot{}, []int{9}, []types.Value{types.Int(1)}); err == nil {
		t.Error("out-of-range column accepted")
	}
}

// TestScanCursorNextZeroAlloc gates the cursor pull hot path: a warm Next
// into a pre-sized buffer performs no allocations — rows are references
// into the immutable version chains, never clones.
func TestScanCursorNextZeroAlloc(t *testing.T) {
	tbl := NewTable("Flights", flightsSchema())
	for i := int64(0); i < 4096; i++ {
		if _, err := tbl.Insert(types.Tuple{types.Int(i), types.MustDate("2011-05-03"), types.Str("LA")}); err != nil {
			t.Fatal(err)
		}
	}
	cur := tbl.ScanCursorAsOf(Snapshot{CSN: 0})
	buf := make([]types.Tuple, 0, 64)
	allocs := testing.AllocsPerRun(200, func() {
		got, err := cur.Next(buf[:0], 64)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			cur.Rewind()
		}
	})
	if allocs != 0 {
		t.Errorf("ScanCursor.Next allocates %.1f objects per pull, want 0", allocs)
	}

	pcur, err := tbl.ProbeCursor(Snapshot{CSN: 0}, []int{2}, []types.Value{types.Str("LA")})
	if err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(200, func() {
		got, err := pcur.Next(buf[:0], 64)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			pcur.Rewind()
		}
	})
	if allocs != 0 {
		t.Errorf("ProbeCursor.Next allocates %.1f objects per pull, want 0", allocs)
	}
}
