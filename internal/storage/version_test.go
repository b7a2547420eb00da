package storage

import (
	"testing"

	"repro/internal/types"
)

func kv(id int64, town string) types.Tuple {
	return types.Tuple{types.Int(id), types.Str(town)}
}

func townSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "town", Type: types.KindString},
	)
}

func TestUncommittedVersionInvisibleUntilStamped(t *testing.T) {
	tbl := NewTable("T", townSchema())
	id, err := tbl.InsertTx(7, kv(1, "SFO"))
	if err != nil {
		t.Fatal(err)
	}
	// Invisible to committed-state readers and to snapshots...
	if _, ok := tbl.Get(id); ok {
		t.Error("uncommitted insert visible to committed-state reader")
	}
	if _, ok := tbl.GetAsOf(Snapshot{CSN: 99}, id); ok {
		t.Error("uncommitted insert visible to foreign snapshot")
	}
	// ...but visible to its own writer, with and without a snapshot.
	if _, ok := tbl.GetTx(7, id); !ok {
		t.Error("writer cannot read its own uncommitted insert")
	}
	if _, ok := tbl.GetAsOf(Snapshot{CSN: 0, Self: 7}, id); !ok {
		t.Error("writer's snapshot hides its own uncommitted insert")
	}
	tbl.Stamp(7, id, 5)
	if _, ok := tbl.GetAsOf(Snapshot{CSN: 4}, id); ok {
		t.Error("commit at CSN 5 visible to snapshot at 4")
	}
	if _, ok := tbl.GetAsOf(Snapshot{CSN: 5}, id); !ok {
		t.Error("commit at CSN 5 invisible to snapshot at 5")
	}
	if got := tbl.ColsCSN(nil); got != 5 {
		t.Errorf("ColsCSN(nil) = %d, want 5", got)
	}
}

func TestSnapshotSeesOldVersionAfterUpdateAndDelete(t *testing.T) {
	tbl := NewTable("T", townSchema())
	id, _ := tbl.InsertTx(1, kv(1, "SFO"))
	tbl.Stamp(1, id, 1)
	if _, err := tbl.UpdateTx(2, id, kv(1, "NYC")); err != nil {
		t.Fatal(err)
	}
	tbl.Stamp(2, id, 2)
	old, ok := tbl.GetAsOf(Snapshot{CSN: 1}, id)
	if !ok || old[1].Str64() != "SFO" {
		t.Fatalf("snapshot at 1 sees %v, want SFO", old)
	}
	cur, ok := tbl.GetAsOf(Snapshot{CSN: 2}, id)
	if !ok || cur[1].Str64() != "NYC" {
		t.Fatalf("snapshot at 2 sees %v, want NYC", cur)
	}
	if _, err := tbl.DeleteTx(3, id); err != nil {
		t.Fatal(err)
	}
	tbl.Stamp(3, id, 3)
	if _, ok := tbl.GetAsOf(Snapshot{CSN: 2}, id); !ok {
		t.Error("snapshot at 2 lost the row after a later delete")
	}
	if _, ok := tbl.GetAsOf(Snapshot{CSN: 3}, id); ok {
		t.Error("snapshot at 3 sees a deleted row")
	}
	if csn, ok := tbl.CommittedCSN(id); !ok || csn != 3 {
		t.Errorf("CommittedCSN = %d, %v, want 3", csn, ok)
	}
}

func TestRollbackRemovesUncommittedVersions(t *testing.T) {
	tbl := NewTable("T", townSchema())
	tbl.CreateIndex("by_town", "town")
	id, _ := tbl.InsertTx(1, kv(1, "SFO"))
	tbl.Stamp(1, id, 1)
	if _, err := tbl.UpdateTx(2, id, kv(1, "NYC")); err != nil {
		t.Fatal(err)
	}
	tbl.Rollback(2, id)
	row, ok := tbl.Get(id)
	if !ok || row[1].Str64() != "SFO" {
		t.Fatalf("after rollback row = %v, want SFO", row)
	}
	if ids, _ := tbl.Lookup([]string{"town"}, types.Tuple{types.Str("NYC")}); len(ids) != 0 {
		t.Errorf("rolled-back key still matches: %v", ids)
	}
	// Rolling back an uncommitted insert removes the chain entirely.
	id2, _ := tbl.InsertTx(3, kv(2, "LAX"))
	tbl.Rollback(3, id2)
	if _, ok := tbl.GetTx(3, id2); ok {
		t.Error("rolled-back insert still readable by its writer")
	}
	if tbl.Len() != 1 {
		t.Errorf("Len = %d, want 1", tbl.Len())
	}
}

func TestIndexedLookupFiltersByVisibility(t *testing.T) {
	tbl := NewTable("T", townSchema())
	tbl.CreateIndex("by_town", "town")
	id, _ := tbl.InsertTx(1, kv(1, "SFO"))
	tbl.Stamp(1, id, 1)
	if _, err := tbl.UpdateTx(2, id, kv(1, "NYC")); err != nil {
		t.Fatal(err)
	}
	tbl.Stamp(2, id, 2)
	// Old snapshot finds the row under its old key, not its new one.
	oldSnap := Snapshot{CSN: 1}
	if ids, _, _ := tbl.LookupRowsAsOf(oldSnap, []string{"town"}, types.Tuple{types.Str("SFO")}); len(ids) != 1 {
		t.Errorf("old snapshot lookup(SFO) = %v, want the row", ids)
	}
	if ids, _, _ := tbl.LookupRowsAsOf(oldSnap, []string{"town"}, types.Tuple{types.Str("NYC")}); len(ids) != 0 {
		t.Errorf("old snapshot lookup(NYC) = %v, want none", ids)
	}
	newSnap := Snapshot{CSN: 2}
	if ids, _, _ := tbl.LookupRowsAsOf(newSnap, []string{"town"}, types.Tuple{types.Str("NYC")}); len(ids) != 1 {
		t.Errorf("new snapshot lookup(NYC) = %v, want the row", ids)
	}
	if ids, _, _ := tbl.LookupRowsAsOf(newSnap, []string{"town"}, types.Tuple{types.Str("SFO")}); len(ids) != 0 {
		t.Errorf("new snapshot lookup(SFO) = %v, want none", ids)
	}
}

func TestScanAsOfIsStableAgainstLaterCommits(t *testing.T) {
	tbl := NewTable("T", townSchema())
	for i := int64(0); i < 5; i++ {
		id, _ := tbl.InsertTx(1, kv(i, "SFO"))
		tbl.Stamp(1, id, 1)
	}
	snap := Snapshot{CSN: 1}
	id, _ := tbl.InsertTx(2, kv(99, "NYC"))
	tbl.Stamp(2, id, 2)
	if got := len(tbl.AllAsOf(snap)); got != 5 {
		t.Errorf("snapshot scan sees %d rows, want 5", got)
	}
	if got := tbl.Len(); got != 6 {
		t.Errorf("latest scan sees %d rows, want 6", got)
	}
}

func TestGCPrunesBelowWatermark(t *testing.T) {
	tbl := NewTable("T", townSchema())
	tbl.CreateIndex("by_town", "town")
	id, _ := tbl.InsertTx(1, kv(1, "SFO"))
	tbl.Stamp(1, id, 1)
	for i, town := range []string{"NYC", "LAX", "SEA"} {
		if _, err := tbl.UpdateTx(uint64(i+2), id, kv(1, town)); err != nil {
			t.Fatal(err)
		}
		tbl.Stamp(uint64(i+2), id, uint64(i+2))
	}
	if got := tbl.VersionCount(); got != 4 {
		t.Fatalf("VersionCount = %d, want 4", got)
	}
	// Watermark 3 keeps the version at CSN 3 (the boundary a snapshot at 3
	// still reads) and everything newer.
	if pruned := tbl.GC(3); pruned != 2 {
		t.Errorf("GC pruned %d, want 2", pruned)
	}
	if row, ok := tbl.GetAsOf(Snapshot{CSN: 3}, id); !ok || row[1].Str64() != "LAX" {
		t.Errorf("boundary snapshot sees %v, want LAX", row)
	}
	if ids, _ := tbl.Lookup([]string{"town"}, types.Tuple{types.Str("SFO")}); len(ids) != 0 {
		t.Errorf("pruned key still indexed: %v", ids)
	}
	// A committed tombstone below the watermark removes the chain entirely.
	id2, _ := tbl.InsertTx(10, kv(2, "OAK"))
	tbl.Stamp(10, id2, 10)
	if _, err := tbl.DeleteTx(11, id2); err != nil {
		t.Fatal(err)
	}
	tbl.Stamp(11, id2, 11)
	tbl.GC(11)
	if _, ok := tbl.GetAsOf(Snapshot{CSN: 11}, id2); ok {
		t.Error("deleted chain still visible after GC")
	}
	if ids, _ := tbl.Lookup([]string{"town"}, types.Tuple{types.Str("OAK")}); len(ids) != 0 {
		t.Errorf("deleted chain still indexed: %v", ids)
	}
}

func TestGCRetainsUncommittedVersions(t *testing.T) {
	tbl := NewTable("T", townSchema())
	id, _ := tbl.InsertTx(1, kv(1, "SFO"))
	tbl.Stamp(1, id, 1)
	if _, err := tbl.UpdateTx(2, id, kv(1, "NYC")); err != nil {
		t.Fatal(err)
	}
	tbl.GC(100)
	if row, ok := tbl.GetTx(2, id); !ok || row[1].Str64() != "NYC" {
		t.Errorf("uncommitted version lost by GC: %v, %v", row, ok)
	}
	tbl.Stamp(2, id, 101)
	if row, ok := tbl.Get(id); !ok || row[1].Str64() != "NYC" {
		t.Errorf("stamped version after GC: %v, %v", row, ok)
	}
}
