package txn

import (
	"errors"
	"testing"
	"time"

	"repro/internal/types"
)

func TestSnapshotReaderDoesNotBlockOrSeeWriter(t *testing.T) {
	m, _ := newTestManager(t, false)
	m.CreateTable("User", userSchema())
	seed, _ := m.Begin(Serializable)
	seed.Insert("User", types.Tuple{types.Int(1), types.Str("SFO")})
	seed.Commit()

	reader, _ := m.Begin(SnapshotIsolation)
	rows, err := reader.Scan("User")
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows = %v, err = %v", rows, err)
	}
	// A concurrent writer proceeds immediately: the snapshot reader holds no
	// locks at all.
	writer, _ := m.Begin(Serializable)
	if _, err := writer.Insert("User", types.Tuple{types.Int(2), types.Str("NYC")}); err != nil {
		t.Fatalf("writer blocked by snapshot reader: %v", err)
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	// The reader's view is repeatable: the committed insert is invisible.
	rows, err = reader.Scan("User")
	if err != nil || len(rows) != 1 {
		t.Fatalf("non-repeatable snapshot read: rows = %v, err = %v", rows, err)
	}
	if n := m.locks.HeldCount(reader.ID()); n != 0 {
		t.Errorf("snapshot reader holds %d locks, want 0", n)
	}
	reader.Commit()
	// A fresh snapshot sees both rows.
	after, _ := m.Begin(SnapshotIsolation)
	if rows, _ := after.Scan("User"); len(rows) != 2 {
		t.Errorf("fresh snapshot sees %d rows, want 2", len(rows))
	}
	after.Commit()
}

func TestSnapshotNeverSeesUncommittedData(t *testing.T) {
	m, _ := newTestManager(t, false)
	m.CreateTable("User", userSchema())
	writer, _ := m.Begin(Serializable)
	if _, err := writer.Insert("User", types.Tuple{types.Int(1), types.Str("SFO")}); err != nil {
		t.Fatal(err)
	}
	reader, _ := m.Begin(SnapshotIsolation)
	if rows, _ := reader.Scan("User"); len(rows) != 0 {
		t.Fatalf("dirty read: snapshot sees uncommitted rows %v", rows)
	}
	writer.Abort()
	if rows, _ := reader.Scan("User"); len(rows) != 0 {
		t.Fatalf("read from aborted: %v", rows)
	}
	reader.Commit()
}

func TestSnapshotReadsOwnWrites(t *testing.T) {
	m, _ := newTestManager(t, false)
	tbl, _ := m.CreateTable("User", userSchema())
	tbl.CreateIndex("by_town", "hometown")
	tx, _ := m.Begin(SnapshotIsolation)
	if _, err := tx.Insert("User", types.Tuple{types.Int(1), types.Str("SFO")}); err != nil {
		t.Fatal(err)
	}
	rows, err := tx.Scan("User")
	if err != nil || len(rows) != 1 {
		t.Fatalf("own write invisible: %v, %v", rows, err)
	}
	_, rows, err = tx.LookupIDs("User", []string{"hometown"}, types.Tuple{types.Str("SFO")})
	if err != nil || len(rows) != 1 {
		t.Fatalf("own write invisible to indexed lookup: %v, %v", rows, err)
	}
	tx.Commit()
}

func TestFirstCommitterWins(t *testing.T) {
	m, _ := newTestManager(t, false)
	m.CreateTable("Counter", types.NewSchema(types.Column{Name: "n", Type: types.KindInt}))
	seed, _ := m.Begin(Serializable)
	id, _ := seed.Insert("Counter", types.Tuple{types.Int(0)})
	seed.Commit()

	a, _ := m.Begin(SnapshotIsolation)
	b, _ := m.Begin(SnapshotIsolation)
	// Both read 0 from their snapshots.
	if rows, _ := a.Scan("Counter"); rows[0][0].Int64() != 0 {
		t.Fatal("bad read")
	}
	if rows, _ := b.Scan("Counter"); rows[0][0].Int64() != 0 {
		t.Fatal("bad read")
	}
	// First committer wins...
	if err := a.Update("Counter", id, types.Tuple{types.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	// ...second writer to the same row loses with ErrWriteConflict.
	err := b.Update("Counter", id, types.Tuple{types.Int(1)})
	if !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("err = %v, want ErrWriteConflict", err)
	}
	b.Abort()
	check, _ := m.Begin(SnapshotIsolation)
	if rows, _ := check.Scan("Counter"); rows[0][0].Int64() != 1 {
		t.Errorf("counter = %v, want 1 (lost update)", rows[0][0])
	}
	check.Commit()
}

func TestWriteConflictAgainstCommittedDelete(t *testing.T) {
	m, _ := newTestManager(t, false)
	m.CreateTable("User", userSchema())
	seed, _ := m.Begin(Serializable)
	id, _ := seed.Insert("User", types.Tuple{types.Int(1), types.Str("SFO")})
	seed.Commit()

	old, _ := m.Begin(SnapshotIsolation)
	old.Scan("User")
	deleter, _ := m.Begin(Serializable)
	if err := deleter.Delete("User", id); err != nil {
		t.Fatal(err)
	}
	deleter.Commit()
	if err := old.Update("User", id, types.Tuple{types.Int(1), types.Str("NYC")}); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("update over committed delete: err = %v, want ErrWriteConflict", err)
	}
	old.Abort()
}

func TestVacuumWatermarkRespectsActiveSnapshots(t *testing.T) {
	m, _ := newTestManager(t, false)
	m.CreateTable("User", userSchema())
	seed, _ := m.Begin(Serializable)
	id, _ := seed.Insert("User", types.Tuple{types.Int(1), types.Str("v0")})
	seed.Commit()

	pinned, _ := m.Begin(SnapshotIsolation) // holds the watermark down
	for i := 1; i <= 3; i++ {
		w, _ := m.Begin(Serializable)
		w.Update("User", id, types.Tuple{types.Int(1), types.Str("v" + string(rune('0'+i)))})
		w.Commit()
	}
	if wm := m.Watermark(); wm != pinned.snap.CSN {
		t.Fatalf("watermark = %d, want pinned snapshot %d", wm, pinned.snap.CSN)
	}
	m.Vacuum()
	// The pinned snapshot's boundary version plus everything newer stays.
	if rows, _ := pinned.Scan("User"); len(rows) != 1 || rows[0][1].Str64() != "v0" {
		t.Fatalf("pinned snapshot corrupted by vacuum: %v", rows)
	}
	pinned.Commit()
	// With the snapshot gone the watermark advances and history collapses.
	if pruned := m.Vacuum(); pruned != 3 {
		t.Errorf("vacuum after release pruned %d versions, want the 3 superseded ones", pruned)
	}
}

func TestManagerSnapshotPinsView(t *testing.T) {
	m, _ := newTestManager(t, false)
	m.CreateTable("User", userSchema())
	w1, _ := m.Begin(Serializable)
	w1.Insert("User", types.Tuple{types.Int(1), types.Str("SFO")})
	w1.Commit()

	snap := m.AcquireSnapshot()
	defer snap.Release()
	w2, _ := m.Begin(Serializable)
	w2.Insert("User", types.Tuple{types.Int(2), types.Str("NYC")})
	w2.Commit()

	tbl, _ := m.Catalog().Get("User")
	if got := len(tbl.AllAsOf(snap.View)); got != 1 {
		t.Errorf("pinned snapshot sees %d rows, want 1", got)
	}
	if wm := m.Watermark(); wm != snap.View.CSN {
		t.Errorf("watermark = %d, want %d", wm, snap.View.CSN)
	}
	snap.Release()
	if wm := m.Watermark(); wm != m.CSN() {
		t.Errorf("watermark after release = %d, want clock %d", wm, m.CSN())
	}
}

func TestSnapshotCommitPublishesAtomically(t *testing.T) {
	// A writer commits three rows in one transaction; concurrent snapshot
	// readers must observe either none or all of them.
	m, _ := newTestManager(t, false)
	m.CreateTable("User", userSchema())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w, _ := m.Begin(SnapshotIsolation)
		for i := int64(1); i <= 3; i++ {
			w.Insert("User", types.Tuple{types.Int(i), types.Str("SFO")})
		}
		w.Commit()
	}()
	deadline := time.Now().Add(2 * time.Second)
	for {
		r, _ := m.Begin(SnapshotIsolation)
		rows, _ := r.Scan("User")
		r.Commit()
		if n := len(rows); n != 0 && n != 3 {
			t.Fatalf("torn commit visible: %d rows", n)
		}
		if len(rows) == 3 || time.Now().After(deadline) {
			break
		}
	}
	<-done
}
