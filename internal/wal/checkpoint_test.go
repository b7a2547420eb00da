package wal

import (
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/storage"
	"repro/internal/types"
)

// checkpointCrashes takes a checkpoint of a log that declares table User,
// an index on it and two committed rows, crashing it at each file
// operation in turn: the "wal.checkpoint" failpoint fails that operation
// undone, and the files as the failed checkpoint left them are the crash
// state. Each state is recovered into a fresh catalog and handed to check;
// the last one is the completed checkpoint.
func checkpointCrashes(t *testing.T, check func(step int, cat *storage.Catalog, err error)) {
	t.Helper()
	rows := []types.Tuple{{types.Int(1), types.Str("SFO")}, {types.Int(2), types.Str("NYC")}}
	for step := 0; ; step++ {
		reg := fault.NewRegistry(1)
		path := filepath.Join(t.TempDir(), "wal.log")
		l, err := Open(path, Options{Faults: reg})
		if err != nil {
			t.Fatal(err)
		}
		recs := []*Record{CreateTable("User", usersSchema()), CreateIndex("User", "byTown", []string{"hometown"})}
		for i, row := range rows {
			recs = append(recs, Insert(TxID(i+1), "User", storage.RowID(i), row), Commit(TxID(i+1), uint64(i+1)))
		}
		if err := l.AppendBatch(recs); err != nil {
			t.Fatal(err)
		}
		live := storage.NewCatalog()
		if _, err := RecoverAll(path, live); err != nil {
			t.Fatal(err)
		}
		reg.Enable("wal.checkpoint", fault.Trigger{After: step, OneShot: true}, fault.Action{Kind: fault.KindError})
		err = Checkpoint(l, live, uint64(len(rows)))
		crashed := errors.Is(err, fault.ErrInjected)
		if err != nil && !crashed {
			t.Fatalf("step %d: checkpoint: %v", step, err)
		}
		l.Close()
		fresh := storage.NewCatalog()
		_, err = RecoverAll(path, fresh)
		check(step, fresh, err)
		if !crashed {
			if step == 0 {
				t.Fatal("the checkpoint performed no file operation through the failpoint")
			}
			return
		}
	}
}

// TestCheckpointCrashBeforeRetireKeepsRows: whatever step a checkpoint
// dies at — in particular after its snapshot is renamed into place and
// before the old log is retired — the database reopens with exactly the
// rows it had.
func TestCheckpointCrashBeforeRetireKeepsRows(t *testing.T) {
	checkpointCrashes(t, func(step int, cat *storage.Catalog, err error) {
		if err != nil {
			t.Fatalf("crash at step %d: recovery: %v", step, err)
		}
		tbl, err := cat.Get("User")
		if err != nil {
			t.Fatalf("crash at step %d: %v", step, err)
		}
		got := tbl.All()
		if len(got) != 2 || got[0][1].Str64() != "SFO" || got[1][1].Str64() != "NYC" {
			t.Fatalf("crash at step %d: rows %v, want the two committed rows", step, got)
		}
	})
}

// TestCheckpointCrashAfterSwitchKeepsIndexes: a crash at any step of a
// checkpoint — in particular once the old log is gone — recovers every
// declared index. (A state that fails to recover at all is the rows
// test's failure.)
func TestCheckpointCrashAfterSwitchKeepsIndexes(t *testing.T) {
	checkpointCrashes(t, func(step int, cat *storage.Catalog, err error) {
		if err != nil {
			return
		}
		tbl, err := cat.Get("User")
		if err != nil {
			t.Fatalf("crash at step %d: %v", step, err)
		}
		if ixs := tbl.Indexes(); len(ixs) != 1 || ixs[0].Name != "byTown" {
			t.Fatalf("crash at step %d: indexes %v, want byTown", step, ixs)
		}
	})
}

// TestCheckpointCarriesUndecidedPrepares: a checkpoint's new segment
// repeats the undecided prepare and every decision, and a reopened log
// (Adopt) keeps repeating them, until the prepare's commit is logged.
func TestCheckpointCarriesUndecidedPrepares(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	pending := types.Tuple{types.Int(5), types.Str("LAX")}
	must(l.AppendBatch([]*Record{CreateTable("User", usersSchema())}))
	must(l.AppendBatch([]*Record{Insert(5, "User", 0, pending), Prepare(5, 77)}))
	must(l.AppendBatch([]*Record{Insert(6, "User", 1, types.Tuple{types.Int(6), types.Str("ORD")}), Prepare(6, 78)}))
	must(l.AppendBatch([]*Record{Commit(6, 1), DecideCommit(90), DecideAbort(91)}))

	recoverAndCheck := func(label string) *RecoveryStats {
		t.Helper()
		cat := storage.NewCatalog()
		st, err := RecoverAll(path, cat)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if g, ok := st.InDoubt[5]; !ok || g != 77 || len(st.InDoubt) != 1 {
			t.Fatalf("%s: in doubt %v, want tx 5 in group 77", label, st.InDoubt)
		}
		if recs := st.InDoubtRecords[5]; len(recs) != 1 || !recs[0].Row.Equal(pending) {
			t.Fatalf("%s: in-doubt records %v", label, recs)
		}
		if c, ok := st.Decisions[90]; !ok || !c {
			t.Fatalf("%s: decision 90 = %v/%v, want a logged commit", label, c, ok)
		}
		if c, ok := st.Decisions[91]; !ok || c {
			t.Fatalf("%s: decision 91 = %v/%v, want a logged abort", label, c, ok)
		}
		if tbl, _ := cat.Get("User"); tbl.Len() != 1 {
			t.Fatalf("%s: %d rows, want the one committed row", label, tbl.Len())
		}
		return st
	}
	live := storage.NewCatalog()
	recoverAndCheck("before the checkpoint")
	if _, err := RecoverAll(path, live); err != nil {
		t.Fatal(err)
	}
	must(Checkpoint(l, live, 1))
	st := recoverAndCheck("after the checkpoint")
	l.Close()

	// Reopened, the log learns what is undecided from recovery.
	l, err = Open(path, Options{})
	must(err)
	defer l.Close()
	l.Adopt(st)
	must(Checkpoint(l, live, 1))
	recoverAndCheck("after a checkpoint of the reopened log")

	// Once its commit is logged, the prepare is no longer carried and the
	// snapshot holds its row.
	must(l.Append(Commit(5, 2)))
	live = storage.NewCatalog()
	_, err = RecoverAll(path, live)
	must(err)
	must(Checkpoint(l, live, 2))
	cat := storage.NewCatalog()
	st, err = RecoverAll(path, cat)
	must(err)
	if tbl, _ := cat.Get("User"); len(st.InDoubt) != 0 || tbl.Len() != 2 {
		t.Fatalf("after the commit: in doubt %v, %d rows; want none and 2", st.InDoubt, tbl.Len())
	}
}
