package storage

import (
	"slices"
	"testing"

	"repro/internal/types"
)

// colsCSN reads ColsCSN for each column of the two-column town schema.
func colsCSN(tbl *Table) [2]uint64 {
	return [2]uint64{tbl.ColsCSN([]int{0}), tbl.ColsCSN([]int{1})}
}

func TestColsCSNTracksChangedColumns(t *testing.T) {
	tbl := NewTable("T", townSchema())
	want := func(step string, id, town, last uint64) {
		t.Helper()
		if got := colsCSN(tbl); got != [2]uint64{id, town} {
			t.Errorf("%s: ColsCSN(id, town) = %v, want [%d %d]", step, got, id, town)
		}
		if got := tbl.ColsCSN(nil); got != last {
			t.Errorf("%s: ColsCSN(nil) = %d, want %d", step, got, last)
		}
	}

	id, _ := tbl.InsertTx(1, kv(1, "SFO"))
	tbl.Stamp(1, id, 1)
	want("insert", 1, 1, 1)

	if _, err := tbl.UpdateTx(2, id, kv(1, "NYC")); err != nil {
		t.Fatal(err)
	}
	tbl.Stamp(2, id, 2)
	want("update of town", 1, 2, 2)

	if _, err := tbl.UpdateTx(3, id, kv(1, "NYC")); err != nil {
		t.Fatal(err)
	}
	tbl.Stamp(3, id, 3)
	want("same-value update", 1, 2, 3)

	// Two updates in one transaction: only the net change counts.
	if _, err := tbl.UpdateTx(4, id, kv(9, "NYC")); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.UpdateTx(4, id, kv(1, "LAX")); err != nil {
		t.Fatal(err)
	}
	tbl.Stamp(4, id, 4)
	want("net update of town", 1, 4, 4)

	if _, err := tbl.UpdateTx(5, id, kv(2, "BOS")); err != nil {
		t.Fatal(err)
	}
	tbl.Rollback(5, id)
	want("rollback", 1, 4, 4)

	if _, err := tbl.DeleteTx(6, id); err != nil {
		t.Fatal(err)
	}
	tbl.Stamp(6, id, 6)
	want("delete", 6, 6, 6)

	id2, _ := tbl.Insert(kv(2, "SEA"))
	if _, err := tbl.UpdateCSN(id2, kv(2, "SEA"), 7); err != nil {
		t.Fatal(err)
	}
	want("UpdateCSN replay", 7, 7, 7)

	tbl = NewTable("T", townSchema()) // a snapshot restores into a new table
	if err := tbl.InsertAtCSN(id2, kv(2, "SEA"), 9); err != nil {
		t.Fatal(err)
	}
	want("restore", 9, 9, 9)
}

// checkOrder asserts a scan lists exactly the live ids want, ascending,
// each once.
func checkOrder(t *testing.T, step string, tbl *Table, want ...RowID) {
	t.Helper()
	var got []RowID
	tbl.Scan(func(id RowID, _ types.Tuple) bool {
		got = append(got, id)
		return true
	})
	if !slices.Equal(got, want) {
		t.Errorf("%s: scan lists ids %v, want %v", step, got, want)
	}
}

func TestChainOrderAscendingAndComplete(t *testing.T) {
	tbl := NewTable("T", townSchema())
	var ids []RowID
	for i := int64(0); i < 8; i++ {
		id, _ := tbl.InsertTx(1, kv(i, "SFO"))
		ids = append(ids, id)
	}
	for _, id := range ids {
		tbl.Stamp(1, id, 1)
	}
	checkOrder(t, "inserts", tbl, ids...)

	tx2, _ := tbl.InsertTx(2, kv(8, "NYC"))
	tbl.Rollback(2, tx2)
	checkOrder(t, "rollback", tbl, ids...)

	for _, id := range ids[:6] {
		if _, err := tbl.DeleteTx(3, id); err != nil {
			t.Fatal(err)
		}
		tbl.Stamp(3, id, 2)
	}
	if n := tbl.GC(2); n == 0 {
		t.Fatal("GC pruned nothing")
	}
	checkOrder(t, "GC", tbl, ids[6:]...)

	// Restoring pruned ids out of order: an earlier capture still
	// enumerates its snapshot's rows, and a fresh one sees the restores.
	early := tbl.ScanCursorAsOf(Snapshot{CSN: 2})
	for _, id := range []RowID{ids[3], ids[0], ids[5]} {
		if err := tbl.InsertAtCSN(id, kv(int64(id), "LAX"), 3); err != nil {
			t.Fatal(err)
		}
	}
	checkOrder(t, "out-of-order restore", tbl, ids[0], ids[3], ids[5], ids[6], ids[7])
	if got := drainCursor(t, early, 3); len(got) != 2 {
		t.Errorf("earlier capture: %d rows, want 2", len(got))
	}
	if got := drainCursor(t, tbl.ScanCursorAsOf(Snapshot{CSN: 3}), 3); len(got) != 5 {
		t.Errorf("fresh capture: %d rows, want 5", len(got))
	}

	tbl = NewTable("T", townSchema()) // a snapshot restores into a new table
	checkOrder(t, "new table", tbl)
	if err := tbl.InsertAtCSN(ids[2], kv(2, "SEA"), 4); err != nil {
		t.Fatal(err)
	}
	checkOrder(t, "restore into a new table", tbl, ids[2])
}

// TestScanCursorCaptureAllocs gates the capture: opening a scan cursor
// allocates the cursor and nothing per row — no id copy, no sort.
func TestScanCursorCaptureAllocs(t *testing.T) {
	tbl := NewTable("Flights", flightsSchema())
	for i := int64(0); i < 2048; i++ {
		if _, err := tbl.Insert(types.Tuple{types.Int(i), types.MustDate("2011-05-03"), types.Str("LA")}); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		_ = tbl.ScanCursorAsOf(Snapshot{CSN: 0})
	})
	if allocs > 1 {
		t.Errorf("ScanCursorAsOf allocates %.1f objects per capture, want at most 1", allocs)
	}
}
