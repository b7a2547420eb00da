package storage

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func flightsSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "fno", Type: types.KindInt},
		types.Column{Name: "fdate", Type: types.KindDate},
		types.Column{Name: "dest", Type: types.KindString},
	)
}

func TestInsertGetUpdateDelete(t *testing.T) {
	tbl := NewTable("Flights", flightsSchema())
	row := types.Tuple{types.Int(122), types.MustDate("2011-05-03"), types.Str("LA")}
	id, err := tbl.Insert(row)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := tbl.Get(id)
	if !ok || !got.Equal(row) {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	// Updates return the old image.
	newRow := types.Tuple{types.Int(122), types.MustDate("2011-05-04"), types.Str("LA")}
	old, err := tbl.Update(id, newRow)
	if err != nil {
		t.Fatal(err)
	}
	if !old.Equal(row) {
		t.Errorf("old image = %v, want %v", old, row)
	}
	got, _ = tbl.Get(id)
	if !got.Equal(newRow) {
		t.Errorf("after update = %v", got)
	}
	// Deletes return the deleted image.
	del, err := tbl.Delete(id)
	if err != nil {
		t.Fatal(err)
	}
	if !del.Equal(newRow) {
		t.Errorf("deleted image = %v", del)
	}
	if _, ok := tbl.Get(id); ok {
		t.Error("row still present after delete")
	}
	if tbl.Len() != 0 {
		t.Errorf("Len = %d", tbl.Len())
	}
}

func TestInsertValidatesSchema(t *testing.T) {
	tbl := NewTable("Flights", flightsSchema())
	if _, err := tbl.Insert(types.Tuple{types.Str("oops")}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := tbl.Insert(types.Tuple{types.Str("oops"), types.Date(0), types.Str("LA")}); err == nil {
		t.Error("type mismatch accepted")
	}
}

func TestUpdateDeleteMissingRow(t *testing.T) {
	tbl := NewTable("Flights", flightsSchema())
	if _, err := tbl.Update(99, types.Tuple{types.Int(1), types.Date(0), types.Str("LA")}); err == nil {
		t.Error("update of missing row accepted")
	}
	if _, err := tbl.Delete(99); err == nil {
		t.Error("delete of missing row accepted")
	}
}

func TestInsertAtReinstatesIdentity(t *testing.T) {
	tbl := NewTable("Flights", flightsSchema())
	row := types.Tuple{types.Int(122), types.Date(0), types.Str("LA")}
	id, _ := tbl.Insert(row)
	if _, err := tbl.Delete(id); err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertAtCSN(id, row, 0); err != nil {
		t.Fatal(err)
	}
	got, ok := tbl.Get(id)
	if !ok || !got.Equal(row) {
		t.Fatal("row not reinstated under original id")
	}
	if err := tbl.InsertAtCSN(id, row, 0); err == nil {
		t.Error("InsertAtCSN over occupied id accepted")
	}
	// RowIDs must not be reused after InsertAtCSN bumps the counter.
	id2, _ := tbl.Insert(row)
	if id2 == id {
		t.Error("RowID reused")
	}
}

func TestInsertIsolatesCallerSlice(t *testing.T) {
	tbl := NewTable("Flights", flightsSchema())
	row := types.Tuple{types.Int(122), types.Date(0), types.Str("LA")}
	id, _ := tbl.Insert(row)
	row[0] = types.Int(999) // caller mutates its slice after insert
	got, _ := tbl.Get(id)
	if got[0].Int64() != 122 {
		t.Error("table stored a shared reference to caller's tuple")
	}
}

func TestScanDeterministicOrder(t *testing.T) {
	tbl := NewTable("Flights", flightsSchema())
	for i := 0; i < 10; i++ {
		if _, err := tbl.Insert(types.Tuple{types.Int(int64(i)), types.Date(0), types.Str("LA")}); err != nil {
			t.Fatal(err)
		}
	}
	var seen []int64
	tbl.Scan(func(_ RowID, row types.Tuple) bool {
		seen = append(seen, row[0].Int64())
		return true
	})
	for i, v := range seen {
		if v != int64(i) {
			t.Fatalf("scan order not RowID order: %v", seen)
		}
	}
	// Early stop.
	count := 0
	tbl.Scan(func(_ RowID, _ types.Tuple) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("scan did not stop early: %d", count)
	}
}

func TestIndexLookup(t *testing.T) {
	tbl := NewTable("Flights", flightsSchema())
	if err := tbl.CreateIndex("by_dest", "dest"); err != nil {
		t.Fatal(err)
	}
	ids := make([]RowID, 0, 4)
	for i, dest := range []string{"LA", "Paris", "LA", "LA"} {
		id, _ := tbl.Insert(types.Tuple{types.Int(int64(100 + i)), types.Date(0), types.Str(dest)})
		ids = append(ids, id)
	}
	la, err := tbl.Lookup([]string{"dest"}, types.Tuple{types.Str("LA")})
	if err != nil {
		t.Fatal(err)
	}
	if len(la) != 3 {
		t.Fatalf("LA rows = %v", la)
	}
	// Update moves index entries.
	row, _ := tbl.Get(ids[1])
	row[2] = types.Str("LA")
	if _, err := tbl.Update(ids[1], row); err != nil {
		t.Fatal(err)
	}
	la, _ = tbl.Lookup([]string{"dest"}, types.Tuple{types.Str("LA")})
	if len(la) != 4 {
		t.Fatalf("after update LA rows = %v", la)
	}
	// Delete removes index entries.
	if _, err := tbl.Delete(ids[0]); err != nil {
		t.Fatal(err)
	}
	la, _ = tbl.Lookup([]string{"dest"}, types.Tuple{types.Str("LA")})
	if len(la) != 3 {
		t.Fatalf("after delete LA rows = %v", la)
	}
	paris, _ := tbl.Lookup([]string{"dest"}, types.Tuple{types.Str("Paris")})
	if len(paris) != 0 {
		t.Fatalf("Paris rows = %v", paris)
	}
}

func TestLookupWithoutIndexFallsBackToScan(t *testing.T) {
	tbl := NewTable("Flights", flightsSchema())
	tbl.Insert(types.Tuple{types.Int(122), types.Date(0), types.Str("LA")})
	tbl.Insert(types.Tuple{types.Int(123), types.Date(0), types.Str("Paris")})
	ids, err := tbl.Lookup([]string{"fno"}, types.Tuple{types.Int(123)})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Fatalf("ids = %v", ids)
	}
	if _, err := tbl.Lookup([]string{"bogus"}, types.Tuple{types.Int(1)}); err == nil {
		t.Error("lookup on missing column accepted")
	}
	if _, err := tbl.Lookup([]string{"fno"}, types.Tuple{}); err == nil {
		t.Error("column/key arity mismatch accepted")
	}
}

func TestIndexErrors(t *testing.T) {
	tbl := NewTable("Flights", flightsSchema())
	if err := tbl.CreateIndex("bad", "bogus"); err == nil {
		t.Error("index on missing column accepted")
	}
	if err := tbl.CreateIndex("x", "dest"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("x", "fno"); err == nil {
		t.Error("duplicate index name accepted")
	}
	if !tbl.HasIndexOn("dest") {
		t.Error("HasIndexOn(dest) = false")
	}
	if tbl.HasIndexOn("fno") {
		t.Error("HasIndexOn(fno) = true")
	}
}

func TestIndexBuiltFromExistingRows(t *testing.T) {
	tbl := NewTable("Flights", flightsSchema())
	tbl.Insert(types.Tuple{types.Int(122), types.Date(0), types.Str("LA")})
	tbl.Insert(types.Tuple{types.Int(123), types.Date(1), types.Str("LA")})
	if err := tbl.CreateIndex("by_dest", "dest"); err != nil {
		t.Fatal(err)
	}
	ids, _ := tbl.Lookup([]string{"dest"}, types.Tuple{types.Str("LA")})
	if len(ids) != 2 {
		t.Fatalf("index not backfilled: %v", ids)
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	if _, err := c.Create("Flights", flightsSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("FLIGHTS", flightsSchema()); err == nil {
		t.Error("case-insensitive duplicate accepted")
	}
	if !c.Has("flights") {
		t.Error("Has(flights) = false")
	}
	tbl, err := c.Get("fLiGhTs")
	if err != nil || tbl.Name() != "Flights" {
		t.Errorf("Get = %v, %v", tbl, err)
	}
	if _, err := c.Get("nope"); err == nil {
		t.Error("Get missing table accepted")
	}
	c.Create("Airlines", types.NewSchema(types.Column{Name: "fno", Type: types.KindInt}))
	names := c.Names()
	if len(names) != 2 || names[0] != "Airlines" || names[1] != "Flights" {
		t.Errorf("Names = %v", names)
	}
}

func TestConcurrentInsertsAndScans(t *testing.T) {
	tbl := NewTable("Flights", flightsSchema())
	tbl.CreateIndex("by_dest", "dest")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tbl.Insert(types.Tuple{types.Int(int64(g*1000 + i)), types.Date(0), types.Str("LA")})
				tbl.Scan(func(_ RowID, _ types.Tuple) bool { return false })
				tbl.Lookup([]string{"dest"}, types.Tuple{types.Str("LA")})
			}
		}(g)
	}
	wg.Wait()
	if tbl.Len() != 1600 {
		t.Errorf("Len = %d, want 1600", tbl.Len())
	}
}

func TestLookupMatchesScanQuick(t *testing.T) {
	// Property: for random data, indexed lookup returns exactly the rows a
	// full scan predicate would.
	f := func(dests []uint8) bool {
		tbl := NewTable("T", flightsSchema())
		tbl.CreateIndex("by_dest", "dest")
		names := []string{"LA", "Paris", "NYC"}
		for i, d := range dests {
			tbl.Insert(types.Tuple{types.Int(int64(i)), types.Date(0), types.Str(names[int(d)%len(names)])})
		}
		for _, want := range names {
			ids, err := tbl.Lookup([]string{"dest"}, types.Tuple{types.Str(want)})
			if err != nil {
				return false
			}
			var scan []RowID
			tbl.Scan(func(id RowID, row types.Tuple) bool {
				if row[2].Str64() == want {
					scan = append(scan, id)
				}
				return true
			})
			if len(ids) != len(scan) {
				return false
			}
			for i := range ids {
				if ids[i] != scan[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
