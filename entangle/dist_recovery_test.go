package entangle

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/wal"
)

// prepareAndCrash builds a participant that dies between prepare and
// decision: a transaction inserts a row, logs its prepare record for the
// given group, and the WAL bytes at that instant are returned — the state
// a restart sees.
func prepareAndCrash(t *testing.T, group uint64) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "part.wal")
	db, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ExecDDL("CREATE TABLE Pledges (name VARCHAR, amount INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO Pledges VALUES ('seed', 1)"); err != nil {
		t.Fatal(err)
	}
	txm := db.Engine().Txm()
	tx, err := txm.Begin(txn.Serializable)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("Pledges", types.Tuple{types.Str("mickey"), types.Int(40)}); err != nil {
		t.Fatal(err)
	}
	if err := txm.Prepare(tx, group); err != nil {
		t.Fatal(err)
	}
	// "Crash": capture the log as it stands — prepare flushed, no verdict.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func reopenFrom(t *testing.T, data []byte) (*DB, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "restart.wal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, path
}

func countPledges(t *testing.T, db *DB) int {
	t.Helper()
	res, err := db.Query("SELECT name FROM Pledges")
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Rows)
}

// TestInDoubtResolvesToLoggedCommit kills a participant between prepare
// and commit, restarts it, and applies the coordinator's logged commit
// decision: the withheld effects must appear, exactly once, and survive a
// second restart.
func TestInDoubtResolvesToLoggedCommit(t *testing.T) {
	const group = 77
	data := prepareAndCrash(t, group)
	db, path := reopenFrom(t, data)

	inDoubt := db.InDoubt()
	if len(inDoubt) != 1 {
		t.Fatalf("InDoubt = %v, want one transaction", inDoubt)
	}
	for _, g := range inDoubt {
		if g != group {
			t.Fatalf("in-doubt group = %d, want %d", g, group)
		}
	}
	// Withheld: the prepared insert must not be visible before the verdict.
	if n := countPledges(t, db); n != 1 {
		t.Fatalf("pledges before resolution = %d, want 1 (seed only)", n)
	}

	if err := db.ResolveInDoubt(group, true); err != nil {
		t.Fatal(err)
	}
	if n := countPledges(t, db); n != 2 {
		t.Fatalf("pledges after commit resolution = %d, want 2", n)
	}
	if len(db.InDoubt()) != 0 {
		t.Fatalf("InDoubt not cleared: %v", db.InDoubt())
	}
	db.Close()

	// The resolution is durable: a further restart has the row and nothing
	// in doubt.
	db2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if n := countPledges(t, db2); n != 2 {
		t.Fatalf("pledges after second restart = %d, want 2", n)
	}
	if len(db2.InDoubt()) != 0 {
		t.Fatalf("in-doubt resurrected after resolution: %v", db2.InDoubt())
	}
}

// TestInDoubtResolvesToLoggedAbort is the abort half: the coordinator
// decided abort (or has no record — presumed abort); the withheld effects
// must never appear, and the abort is durable.
func TestInDoubtResolvesToLoggedAbort(t *testing.T) {
	const group = 78
	data := prepareAndCrash(t, group)
	db, path := reopenFrom(t, data)

	if len(db.InDoubt()) != 1 {
		t.Fatalf("InDoubt = %v, want one transaction", db.InDoubt())
	}
	if err := db.ResolveInDoubt(group, false); err != nil {
		t.Fatal(err)
	}
	if n := countPledges(t, db); n != 1 {
		t.Fatalf("pledges after abort resolution = %d, want 1", n)
	}
	db.Close()

	db2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if n := countPledges(t, db2); n != 1 {
		t.Fatalf("pledges after second restart = %d, want 1", n)
	}
	if len(db2.InDoubt()) != 0 {
		t.Fatalf("in-doubt survived abort resolution: %v", db2.InDoubt())
	}
}

// TestCoordinatorDecisionSurvivesRestart: the coordinator's own log hands
// the verdict back after a crash, which is what makes the participant's
// Status inquiry answerable.
func TestCoordinatorDecisionSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.wal")
	db, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LogDecision(91, true); err != nil {
		t.Fatal(err)
	}
	if err := db.LogDecision(92, false); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	dec := db2.RecoveredDecisions()
	if commit, ok := dec[91]; !ok || !commit {
		t.Fatalf("group 91 decision = %v/%v, want commit", dec[91], ok)
	}
	if commit, ok := dec[92]; !ok || commit {
		t.Fatalf("group 92 decision = %v/%v, want abort", dec[92], ok)
	}
}

// TestPreparedTornTailSweep cuts the participant's crashed log at every
// byte offset: recovery must always succeed, the prepared transaction's
// effects must never be redone, and it is either in-doubt (prepare record
// survived whole) or an ordinary loser (prepare torn away).
func TestPreparedTornTailSweep(t *testing.T) {
	const group = 79
	data := prepareAndCrash(t, group)
	dir := t.TempDir()
	sawInDoubt := false
	for cut := 0; cut <= len(data); cut++ {
		cutPath := filepath.Join(dir, "cut.wal")
		if err := os.WriteFile(cutPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cat := storage.NewCatalog()
		stats, err := wal.RecoverAll(cutPath, cat)
		if err != nil {
			t.Fatalf("cut at byte %d: %v", cut, err)
		}
		if cat.Has("Pledges") {
			tbl, _ := cat.Get("Pledges")
			tbl.ScanTx(0, func(_ storage.RowID, row types.Tuple) bool {
				if row[0].Str64() == "mickey" {
					t.Fatalf("cut at byte %d: prepared effects redone without a verdict", cut)
				}
				return true
			})
		}
		if len(stats.InDoubt) > 0 {
			sawInDoubt = true
			for _, g := range stats.InDoubt {
				if g != group {
					t.Fatalf("cut at byte %d: in-doubt group = %d, want %d", cut, g, group)
				}
			}
		}
	}
	if !sawInDoubt {
		t.Fatal("no cut produced an in-doubt transaction; the sweep never crossed the prepare record")
	}
}
