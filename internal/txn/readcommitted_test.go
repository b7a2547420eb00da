package txn

import (
	"testing"

	"repro/internal/lock"
	"repro/internal/types"
)

// Regression coverage for the ReadCommitted statement-end release: shared
// locks must actually be gone from the lock manager once a read statement
// completes, nothing may accumulate across statements, and write locks
// must survive the release untouched.

func TestReadCommittedScanReleasesAllSharedLocks(t *testing.T) {
	m, _ := newTestManager(t, false)
	m.CreateTable("User", userSchema())
	seed, _ := m.Begin(Serializable)
	seed.Insert("User", types.Tuple{types.Int(1), types.Str("SFO")})
	seed.Commit()

	tx, _ := m.Begin(ReadCommitted)
	if _, err := tx.Scan("User"); err != nil {
		t.Fatal(err)
	}
	if n := m.locks.HeldCount(tx.ID()); n != 0 {
		t.Fatalf("S locks leak after statement end: HeldCount = %d", n)
	}
	if m.locks.Holds(tx.ID(), lock.TableRow{Table: "User", Row: lock.AllRows}, lock.S) {
		t.Fatal("table S lock survives statementEnd")
	}
	tx.Commit()
}

func TestReadCommittedLookupReleasesRowLocks(t *testing.T) {
	m, _ := newTestManager(t, false)
	tbl, _ := m.CreateTable("User", userSchema())
	tbl.CreateIndex("by_town", "hometown")
	seed, _ := m.Begin(Serializable)
	seed.Insert("User", types.Tuple{types.Int(1), types.Str("SFO")})
	seed.Insert("User", types.Tuple{types.Int(2), types.Str("SFO")})
	seed.Commit()

	tx, _ := m.Begin(ReadCommitted)
	ids, _, err := tx.LookupIDs("User", []string{"hometown"}, types.Tuple{types.Str("SFO")})
	if err != nil || len(ids) != 2 {
		t.Fatalf("lookup = %v, %v", ids, err)
	}
	// IS table lock and both row S locks must all be released.
	if n := m.locks.HeldCount(tx.ID()); n != 0 {
		t.Fatalf("lookup locks leak after statement end: HeldCount = %d", n)
	}
	tx.Commit()
}

func TestReadCommittedNoLeakAcrossStatements(t *testing.T) {
	m, _ := newTestManager(t, false)
	m.CreateTable("A", userSchema())
	m.CreateTable("B", userSchema())
	tx, _ := m.Begin(ReadCommitted)
	for i := 0; i < 5; i++ {
		if _, err := tx.Scan("A"); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Scan("B"); err != nil {
			t.Fatal(err)
		}
		if n := m.locks.HeldCount(tx.ID()); n != 0 {
			t.Fatalf("statement %d leaked %d lock entries", i, n)
		}
	}
	tx.Commit()
}

func TestReadCommittedKeepsWriteLocksToCommit(t *testing.T) {
	m, _ := newTestManager(t, false)
	m.CreateTable("User", userSchema())
	seed, _ := m.Begin(Serializable)
	id, _ := seed.Insert("User", types.Tuple{types.Int(1), types.Str("SFO")})
	seed.Commit()

	tx, _ := m.Begin(ReadCommitted)
	if err := tx.Update("User", id, types.Tuple{types.Int(1), types.Str("NYC")}); err != nil {
		t.Fatal(err)
	}
	// A read statement's release must not surrender the write locks.
	if _, err := tx.Scan("User"); err != nil {
		t.Fatal(err)
	}
	if !m.locks.Holds(tx.ID(), lock.TableRow{Table: "User", Row: int64(id)}, lock.X) {
		t.Fatal("row X lock lost at statement end under ReadCommitted")
	}
	if !m.locks.Holds(tx.ID(), lock.TableRow{Table: "User", Row: lock.AllRows}, lock.IX) {
		t.Fatal("table IX lock lost at statement end under ReadCommitted")
	}
	tx.Commit()
	if n := m.locks.HeldCount(tx.ID()); n != 0 {
		t.Fatalf("locks leak after commit: HeldCount = %d", n)
	}
}
