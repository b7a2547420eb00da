package isolation

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
)

// Snapshot-isolation oracle: the structural checkers in this package model
// reads as lock-mediated (a read observes the live state at its position
// in the schedule), which is exactly what snapshot isolation does NOT do —
// an SI read observes the transaction's snapshot, so position-based
// replay would flag false anomalies. The SI oracle is therefore
// value-level: we run adversarial interleavings against the real engine
// and assert the two defining guarantees directly — no dirty reads (no
// uncommitted or later-aborted data is ever observed) and no
// non-repeatable reads (re-reading within a transaction yields identical
// state, no matter what commits concurrently).

func newSnapshotManager(t *testing.T) *txn.Manager {
	t.Helper()
	cat := storage.NewCatalog()
	locks := lock.New(500 * time.Millisecond)
	m := txn.NewManager(cat, locks, nil)
	if _, err := m.CreateTable("Accounts", types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "balance", Type: types.KindInt},
	)); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSnapshotOracleNoDirtyOrUnrepeatableReads hammers a snapshot reader
// with concurrent committing and aborting writers and checks both SI
// guarantees on every observation.
func TestSnapshotOracleNoDirtyOrUnrepeatableReads(t *testing.T) {
	m := newSnapshotManager(t)
	seed, _ := m.Begin(txn.Serializable)
	var ids []storage.RowID
	for i := int64(0); i < 4; i++ {
		id, _ := seed.Insert("Accounts", types.Tuple{types.Int(i), types.Int(100)})
		ids = append(ids, id)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Committing writers preserve a global invariant (sum of balances is a
	// multiple of 100 per row set: each commit moves 10 between two rows).
	// Aborting writers scribble +1000 and roll back — dirty-read bait.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tx, _ := m.Begin(txn.Serializable)
				a, b := ids[i%len(ids)], ids[(i+w+1)%len(ids)]
				if a == b {
					tx.Abort()
					continue
				}
				ra, okA := readBalance(tx, a)
				rb, okB := readBalance(tx, b)
				if !okA || !okB {
					tx.Abort()
					continue
				}
				if tx.Update("Accounts", a, types.Tuple{types.Int(int64(i)), types.Int(ra - 10)}) != nil ||
					tx.Update("Accounts", b, types.Tuple{types.Int(int64(i)), types.Int(rb + 10)}) != nil {
					tx.Abort()
					continue
				}
				if i%3 == 0 {
					// Dirty-read bait: overwrite then abort.
					tx.Abort()
					continue
				}
				tx.Commit()
			}
		}(w)
	}

	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		r, _ := m.Begin(txn.SnapshotIsolation)
		first, err := r.Scan("Accounts")
		if err != nil {
			t.Fatal(err)
		}
		sum := int64(0)
		for _, row := range first {
			sum += row[1].Int64()
		}
		// No dirty read: a torn or rolled-back write would break the
		// transfer invariant (total balance constant).
		if sum != int64(len(ids))*100 {
			t.Fatalf("dirty or torn read: balances sum to %d, want %d", sum, len(ids)*100)
		}
		// No non-repeatable read: a second scan inside the same transaction
		// sees byte-identical state regardless of concurrent commits.
		second, err := r.Scan("Accounts")
		if err != nil {
			t.Fatal(err)
		}
		if len(first) != len(second) {
			t.Fatalf("non-repeatable read: %d rows then %d", len(first), len(second))
		}
		for i := range first {
			if !first[i].Equal(second[i]) {
				t.Fatalf("non-repeatable read: row %d changed from %v to %v", i, first[i], second[i])
			}
		}
		r.Commit()
	}
	close(stop)
	wg.Wait()
}

func readBalance(tx *txn.Txn, id storage.RowID) (int64, bool) {
	ids, rows, err := tx.ScanIDs("Accounts")
	if err != nil {
		return 0, false
	}
	for i, got := range ids {
		if got == id {
			return rows[i][1].Int64(), true
		}
	}
	return 0, false
}

// TestSnapshotIsolatedEngineCommitsEntangledPairs runs the §2 entangled
// pair at the SnapshotIsolated level end to end: grounding through the
// round snapshot, group commit, and lock-free reads must coexist.
func TestSnapshotIsolatedEngineCommitsEntangledPairs(t *testing.T) {
	rec := NewRecorder()
	e := newTracedEngine(t, core.SnapshotIsolated, rec)
	h1 := e.Submit(bookProg("Mickey", "Minnie", false))
	h2 := e.Submit(bookProg("Minnie", "Mickey", true))
	if o := h1.Wait(); o.Status != core.StatusCommitted {
		t.Fatalf("Mickey: %+v", o)
	}
	if o := h2.Wait(); o.Status != core.StatusCommitted {
		t.Fatalf("Minnie: %+v", o)
	}
	s := rec.Schedule()
	if err := s.Validate(); err != nil {
		t.Fatalf("engine emitted invalid schedule: %v\n%s", err, s)
	}
	// Group commit is still on at SI: no widowed transactions.
	if err := Widowed(s.WithQuasiReads()); err != nil {
		t.Fatalf("SI engine emitted widowed schedule: %v\n%s", err, s)
	}
	// Both bookings agree on one flight (the entangled constraint held).
	tbl, err := e.Txm().Catalog().Get("Bookings")
	if err != nil {
		t.Fatal(err)
	}
	snap := e.Txm().AcquireSnapshot()
	rows := tbl.AllAsOf(snap.View)
	snap.Release()
	if len(rows) != 2 || !rows[0][1].Equal(rows[1][1]) {
		t.Fatalf("bookings = %v, want a coordinated pair", rows)
	}
}

// TestSnapshotIsolatedWriteConflictRetries: two SI members racing a
// read-modify-write on one row must both commit (the loser retries with a
// fresh snapshot), and the engine must count the conflict.
func TestSnapshotIsolatedWriteConflictRetries(t *testing.T) {
	cat := storage.NewCatalog()
	locks := lock.New(500 * time.Millisecond)
	txm := txn.NewManager(cat, locks, nil)
	if _, err := txm.CreateTable("Counter", types.NewSchema(
		types.Column{Name: "n", Type: types.KindInt},
	)); err != nil {
		t.Fatal(err)
	}
	seed, _ := txm.Begin(txn.Serializable)
	id, _ := seed.Insert("Counter", types.Tuple{types.Int(0)})
	seed.Commit()
	e := core.NewEngine(txm, core.Options{Isolation: core.SnapshotIsolated})
	t.Cleanup(e.Close)

	const workers = 8
	inc := core.Program{
		Timeout: 5 * time.Second,
		Body: func(tx *core.Tx) error {
			rows, err := tx.Scan("Counter")
			if err != nil {
				return err
			}
			n := rows[0][0].Int64()
			return tx.Update("Counter", id, types.Tuple{types.Int(n + 1)})
		},
	}
	var handles []*core.Handle
	for i := 0; i < workers; i++ {
		handles = append(handles, e.Submit(inc))
	}
	for i, h := range handles {
		if o := h.Wait(); o.Status != core.StatusCommitted {
			t.Fatalf("worker %d: %+v", i, o)
		}
	}
	check, _ := txm.Begin(txn.SnapshotIsolation)
	rows, _ := check.Scan("Counter")
	check.Commit()
	if got := rows[0][0].Int64(); got != workers {
		t.Fatalf("counter = %d, want %d (first-committer-wins lost an update)", got, workers)
	}
}
