package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/types"
)

// heapAfterGC collects twice, so objects freed by the first cycle's
// finalizers and sweeps are gone, then reads the heap statistics.
func heapAfterGC() runtime.MemStats {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// notesTable returns an empty table shaped like classical_mix's Notes,
// indexed on id.
func notesTable(tb testing.TB) *Table {
	tb.Helper()
	tbl := NewTable("Notes", types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "who", Type: types.KindString},
		types.Column{Name: "n", Type: types.KindInt},
	))
	if err := tbl.CreateIndex("notes_id", "id"); err != nil {
		tb.Fatal(err)
	}
	return tbl
}

// note is one Notes row; its who string is a fresh allocation, as a row
// stored from SQL has.
func note(id, n int64) types.Tuple {
	return types.Tuple{types.Int(id), types.Str(fmt.Sprintf("w%d", id)), types.Int(n)}
}

// TestHeapBoundedUnderChurn: a small table that inserts and deletes a row
// 200,000 times, vacuumed between rounds, ends with the heap of its live
// rows. Released pages, re-carved slabs and rebuilt bucket maps keep what
// the churn grew from being retained after Vacuum.
func TestHeapBoundedUnderChurn(t *testing.T) {
	const live, rounds, pairs = 100, 20, 10_000
	tbl := notesTable(t)
	for i := int64(0); i < live; i++ {
		if _, err := tbl.Insert(note(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	base := heapAfterGC().HeapAlloc
	key := int64(live)
	for r := 0; r < rounds; r++ {
		for i := 0; i < pairs; i++ {
			id, err := tbl.Insert(note(key, 0))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tbl.Delete(id); err != nil {
				t.Fatal(err)
			}
			key++
		}
		if n := tbl.GC(0); n != 2*pairs {
			t.Fatalf("round %d: GC pruned %d versions, want %d", r, n, 2*pairs)
		}
	}
	end := heapAfterGC().HeapAlloc
	runtime.KeepAlive(tbl)
	ratio := float64(end) / float64(base)
	t.Logf("heap %d B with %d rows, %d B after %d churn pairs: %.2fx", base, live, end, rounds*pairs, ratio)
	if ratio > 1.2 {
		t.Errorf("heap grew %.2fx under churn, want at most 1.2x", ratio)
	}
	if n := tbl.Len(); n != live {
		t.Errorf("Len = %d after churn, want %d", n, live)
	}
}

// TestHeapBoundedAfterUpdateSoak: 200,000 uniform random updates over
// 20,000 rows, then a Vacuum, leave the heap of the loaded table. The
// pruned versions' tuples share slab chunks with survivors, so this holds
// only because GC re-carves the survivors.
func TestHeapBoundedAfterUpdateSoak(t *testing.T) {
	const rows, updates = 20_000, 200_000
	tbl := notesTable(t)
	for i := int64(0); i < rows; i++ {
		if _, err := tbl.Insert(note(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	base := heapAfterGC().HeapAlloc
	rng := rand.New(rand.NewSource(1))
	for u := 1; u <= updates; u++ {
		id := rng.Intn(rows)
		if _, err := tbl.UpdateCSN(RowID(id), note(int64(id), int64(u)), uint64(u)); err != nil {
			t.Fatal(err)
		}
	}
	if n := tbl.GC(updates); n == 0 {
		t.Fatal("GC pruned nothing")
	}
	end := heapAfterGC().HeapAlloc
	runtime.KeepAlive(tbl)
	ratio := float64(end) / float64(base)
	t.Logf("heap %d B loaded, %d B after %d updates and GC: %.2fx", base, end, updates, ratio)
	if ratio > 1.2 {
		t.Errorf("heap grew %.2fx after the update soak, want at most 1.2x", ratio)
	}
	if n := tbl.VersionCount(); n != rows {
		t.Errorf("%d versions after GC, want %d", n, rows)
	}
}

// TestLoadAddsNoObjectPerRow gates the row layout: chains, versions,
// tuples and one-id buckets come from pages and slabs, so loading 20,000
// int-only rows into an indexed table adds a bounded number of heap
// objects (chunks, pages and the bucket map's tables), not some per row.
func TestLoadAddsNoObjectPerRow(t *testing.T) {
	const rows, limit = 20_000, 200
	tbl := NewTable("T", types.NewSchema(
		types.Column{Name: "x", Type: types.KindInt},
		types.Column{Name: "y", Type: types.KindInt},
	))
	if err := tbl.CreateIndex("by_x", "x"); err != nil {
		t.Fatal(err)
	}
	row := make(types.Tuple, 2)
	before := heapAfterGC().HeapObjects
	for i := int64(0); i < rows; i++ {
		row[0], row[1] = types.Int(i), types.Int(-i)
		if _, err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	added := int64(heapAfterGC().HeapObjects) - int64(before)
	runtime.KeepAlive(tbl)
	t.Logf("%d rows added %d heap objects", rows, added)
	if added > limit {
		t.Errorf("loading %d rows added %d heap objects, want at most %d", rows, added, limit)
	}
}

// TestOutOfRangeRowIDs: an id below zero, the InvalidRowID sentinel
// among them, or past every page is absent on every path, and restoring a
// row under a negative id is an error, not a row listed before id 0.
func TestOutOfRangeRowIDs(t *testing.T) {
	tbl := NewTable("T", townSchema())
	if err := tbl.CreateIndex("by_id", "id"); err != nil {
		t.Fatal(err)
	}
	id, _ := tbl.InsertTx(1, kv(1, "SFO"))
	tbl.Stamp(1, id, 1)
	for _, c := range []struct {
		name string
		id   RowID
	}{
		{"InvalidRowID", InvalidRowID},
		{"far negative", -3 * pageSize},
		{"past the pages", 5 * pageSize},
		{"far past", 1 << 60},
	} {
		if c.id < 0 {
			if err := tbl.InsertAtCSN(c.id, kv(9, "LAX"), 2); err == nil {
				t.Errorf("%s: InsertAtCSN(%d) accepted", c.name, c.id)
			}
		}
		if row, ok := tbl.GetTx(1, c.id); ok {
			t.Errorf("%s: GetTx = %v", c.name, row)
		}
		if row, ok := tbl.GetAsOf(Snapshot{CSN: 9}, c.id); ok {
			t.Errorf("%s: GetAsOf = %v", c.name, row)
		}
		if csn, ok := tbl.CommittedCSN(c.id); ok {
			t.Errorf("%s: CommittedCSN = %d", c.name, csn)
		}
		if _, err := tbl.UpdateTx(2, c.id, kv(9, "LAX")); err == nil {
			t.Errorf("%s: UpdateTx accepted", c.name)
		}
		if _, err := tbl.DeleteTx(2, c.id); err == nil {
			t.Errorf("%s: DeleteTx accepted", c.name)
		}
		tbl.Stamp(2, c.id, 3)
		tbl.Rollback(2, c.id)
		if got := tbl.ColsCSN(nil); got != 1 {
			t.Errorf("%s: ColsCSN(nil) = %d after stamping an absent row, want 1", c.name, got)
		}
	}
	var ids []RowID
	tbl.Scan(func(id RowID, _ types.Tuple) bool {
		ids = append(ids, id)
		return true
	})
	if !slices.Equal(ids, []RowID{id}) {
		t.Errorf("Scan lists %v, want [%d]", ids, id)
	}

	// Cursors: a probe captured before its only candidate's page is
	// released, and a scan whose bound covers that page, find nothing.
	orphan := RowID(2 * pageSize)
	if err := tbl.InsertAtCSN(orphan, kv(7, "SEA"), 4); err != nil {
		t.Fatal(err)
	}
	probe, err := tbl.ProbeCursor(Snapshot{CSN: 9}, []int{0}, []types.Value{types.Int(7)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.DeleteCSN(orphan, 5); err != nil {
		t.Fatal(err)
	}
	scan := tbl.ScanCursorAsOf(Snapshot{CSN: 9})
	if n := tbl.GC(9); n != 2 {
		t.Fatalf("GC pruned %d versions, want 2", n)
	}
	if got := drainProbe(t, probe, 4); len(got) != 0 {
		t.Errorf("probe over a released page returned %v", got)
	}
	if got := drainCursor(t, scan, 4); len(got) != 1 {
		t.Errorf("scan returned %v, want the one live row", got)
	}
}

// BenchmarkTableGCMark times a forced collection with a 100k-row indexed
// Notes table live and reports the heap objects the table holds per row:
// one, its who string, when stored rows are no objects of their own.
func BenchmarkTableGCMark(b *testing.B) {
	const rows = 100_000
	before := heapAfterGC().HeapObjects
	tbl := notesTable(b)
	for i := int64(0); i < rows; i++ {
		if _, err := tbl.Insert(note(i, i)); err != nil {
			b.Fatal(err)
		}
	}
	after := heapAfterGC().HeapObjects
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runtime.GC()
	}
	b.StopTimer()
	runtime.KeepAlive(tbl)
	b.ReportMetric(float64(int64(after)-int64(before))/rows, "objects/row")
}
