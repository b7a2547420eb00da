package txn

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/wal"
)

func newTestManager(t *testing.T, withLog bool) (*Manager, string) {
	t.Helper()
	cat := storage.NewCatalog()
	locks := lock.New(0)
	var log *wal.Log
	var path string
	if withLog {
		path = filepath.Join(t.TempDir(), "wal.log")
		var err error
		log, err = wal.Open(path, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { log.Close() })
	}
	return NewManager(cat, locks, log), path
}

func userSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "uid", Type: types.KindInt},
		types.Column{Name: "hometown", Type: types.KindString},
	)
}

func TestCommitPersistsWrites(t *testing.T) {
	m, _ := newTestManager(t, false)
	if _, err := m.CreateTable("User", userSchema()); err != nil {
		t.Fatal(err)
	}
	tx, err := m.Begin(Serializable)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("User", types.Tuple{types.Int(1), types.Str("SFO")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx.State() != Committed {
		t.Errorf("state = %v", tx.State())
	}
	tx2, _ := m.Begin(Serializable)
	rows, err := tx2.Scan("User")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][1].Str64() != "SFO" {
		t.Errorf("rows = %v", rows)
	}
	tx2.Commit()
}

func TestAbortUndoesAllWriteKinds(t *testing.T) {
	m, _ := newTestManager(t, false)
	m.CreateTable("User", userSchema())
	setup, _ := m.Begin(Serializable)
	id, _ := setup.Insert("User", types.Tuple{types.Int(1), types.Str("SFO")})
	id2, _ := setup.Insert("User", types.Tuple{types.Int(2), types.Str("NYC")})
	setup.Commit()

	tx, _ := m.Begin(Serializable)
	if _, err := tx.Insert("User", types.Tuple{types.Int(3), types.Str("LAX")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("User", id, types.Tuple{types.Int(1), types.Str("OAK")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("User", id2); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	check, _ := m.Begin(Serializable)
	rows, _ := check.Scan("User")
	if len(rows) != 2 {
		t.Fatalf("rows after abort = %v", rows)
	}
	if rows[0][1].Str64() != "SFO" || rows[1][1].Str64() != "NYC" {
		t.Errorf("rows not restored: %v", rows)
	}
	check.Commit()
}

func TestOpsAfterCommitRejected(t *testing.T) {
	m, _ := newTestManager(t, false)
	m.CreateTable("User", userSchema())
	tx, _ := m.Begin(Serializable)
	tx.Commit()
	if _, err := tx.Insert("User", types.Tuple{types.Int(1), types.Str("x")}); !errors.Is(err, ErrNotActive) {
		t.Errorf("err = %v", err)
	}
	if _, err := tx.Scan("User"); !errors.Is(err, ErrNotActive) {
		t.Errorf("err = %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrNotActive) {
		t.Errorf("double commit err = %v", err)
	}
	if err := tx.Abort(); err != nil {
		t.Errorf("abort after commit should be a no-op, got %v", err)
	}
}

func TestSerializableReaderBlocksWriter(t *testing.T) {
	m, _ := newTestManager(t, false)
	m.CreateTable("User", userSchema())
	reader, _ := m.Begin(Serializable)
	if _, err := reader.Scan("User"); err != nil {
		t.Fatal(err)
	}
	writer, _ := m.Begin(Serializable)
	done := make(chan error, 1)
	go func() {
		_, err := writer.Insert("User", types.Tuple{types.Int(1), types.Str("x")})
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("writer proceeded against serializable reader's table lock")
	case <-time.After(20 * time.Millisecond):
	}
	reader.Commit()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	writer.Commit()
}

func TestReadCommittedReleasesReadLocks(t *testing.T) {
	m, _ := newTestManager(t, false)
	m.CreateTable("User", userSchema())
	reader, _ := m.Begin(ReadCommitted)
	if _, err := reader.Scan("User"); err != nil {
		t.Fatal(err)
	}
	// Under ReadCommitted the shared lock is gone at statement end, so a
	// writer proceeds immediately.
	writer, _ := m.Begin(Serializable)
	if _, err := writer.Insert("User", types.Tuple{types.Int(1), types.Str("x")}); err != nil {
		t.Fatal(err)
	}
	writer.Commit()
	// The reader can observe the new row on a second read — an unrepeatable
	// read, permitted at this level.
	rows, err := reader.Scan("User")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Errorf("unrepeatable read not observed: %v", rows)
	}
	reader.Commit()
}

func TestLookup(t *testing.T) {
	m, _ := newTestManager(t, false)
	tbl, _ := m.CreateTable("User", userSchema())
	tbl.CreateIndex("by_town", "hometown")
	setup, _ := m.Begin(Serializable)
	setup.Insert("User", types.Tuple{types.Int(1), types.Str("SFO")})
	setup.Insert("User", types.Tuple{types.Int(2), types.Str("SFO")})
	setup.Insert("User", types.Tuple{types.Int(3), types.Str("NYC")})
	setup.Commit()
	tx, _ := m.Begin(Serializable)
	rows, err := tx.Lookup("User", []string{"hometown"}, types.Tuple{types.Str("SFO")})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("rows = %v", rows)
	}
	tx.Commit()
}

func TestWalRecoveryAfterCrash(t *testing.T) {
	m, path := newTestManager(t, true)
	m.CreateTable("User", userSchema())
	tx, _ := m.Begin(Serializable)
	tx.Insert("User", types.Tuple{types.Int(1), types.Str("SFO")})
	tx.Commit()
	// In-flight transaction at "crash": writes applied but not committed.
	loser, _ := m.Begin(Serializable)
	loser.Insert("User", types.Tuple{types.Int(2), types.Str("NYC")})
	// Crash: recover from the log into a fresh catalog.
	fresh := storage.NewCatalog()
	stats, err := wal.RecoverAll(path, fresh)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := fresh.Get("User")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Fatalf("recovered %d rows, want 1 (stats %+v)", tbl.Len(), stats)
	}
}

func TestGroupCommitAtomicInLog(t *testing.T) {
	m, path := newTestManager(t, true)
	m.CreateTable("User", userSchema())
	a, _ := m.Begin(Serializable)
	b, _ := m.Begin(Serializable)
	a.Insert("User", types.Tuple{types.Int(1), types.Str("A")})
	b.Insert("User", types.Tuple{types.Int(2), types.Str("B")})
	if err := m.LogEntangle(99, []uint64{a.ID(), b.ID()}); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitUnits([][]*Txn{{a, b}}); err != nil {
		t.Fatal(err)
	}
	if a.State() != Committed || b.State() != Committed {
		t.Error("group members not committed")
	}
	fresh := storage.NewCatalog()
	if _, err := wal.RecoverAll(path, fresh); err != nil {
		t.Fatal(err)
	}
	tbl, _ := fresh.Get("User")
	if tbl.Len() != 2 {
		t.Errorf("recovered %d rows, want 2", tbl.Len())
	}
}

func TestCommitGroupRejectsFinishedMember(t *testing.T) {
	m, _ := newTestManager(t, false)
	a, _ := m.Begin(Serializable)
	b, _ := m.Begin(Serializable)
	b.Abort()
	if err := m.CommitUnits([][]*Txn{{a, b}}); err == nil {
		t.Fatal("group commit with aborted member accepted")
	}
	a.Abort()
}

func TestDeadlockVictimCanAbortAndRetry(t *testing.T) {
	m, _ := newTestManager(t, false)
	m.CreateTable("A", userSchema())
	m.CreateTable("B", userSchema())
	t1, _ := m.Begin(Serializable)
	t2, _ := m.Begin(Serializable)
	if _, err := t1.Insert("A", types.Tuple{types.Int(1), types.Str("x")}); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Insert("B", types.Tuple{types.Int(2), types.Str("y")}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var t1Err error
	go func() {
		defer wg.Done()
		_, t1Err = t1.Scan("B") // waits on t2's IX
	}()
	time.Sleep(20 * time.Millisecond)
	_, err := t2.Scan("A") // closes the cycle; t2 is the victim
	if !errors.Is(err, lock.ErrDeadlock) {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if err := t2.Abort(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if t1Err != nil {
		t.Fatalf("survivor errored: %v", t1Err)
	}
	t1.Commit()
	// Victim retries and succeeds.
	t3, _ := m.Begin(Serializable)
	if _, err := t3.Scan("A"); err != nil {
		t.Fatal(err)
	}
	t3.Commit()
}

func TestObserverSeesOps(t *testing.T) {
	m, _ := newTestManager(t, false)
	m.CreateTable("User", userSchema())
	rec := &recordingObserver{}
	m.SetObserver(rec)
	tx, _ := m.Begin(Serializable)
	tx.Scan("User")
	tx.Insert("User", types.Tuple{types.Int(1), types.Str("x")})
	tx.Commit()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.reads != 1 || rec.writes != 1 || rec.commits != 1 {
		t.Errorf("observer = %+v", rec)
	}
}

type recordingObserver struct {
	mu      sync.Mutex
	reads   int
	writes  int
	commits int
	aborts  int
}

func (r *recordingObserver) OnRead(uint64, string, int64) {
	r.mu.Lock()
	r.reads++
	r.mu.Unlock()
}
func (r *recordingObserver) OnWrite(uint64, string, int64) {
	r.mu.Lock()
	r.writes++
	r.mu.Unlock()
}
func (r *recordingObserver) OnCommit(uint64) {
	r.mu.Lock()
	r.commits++
	r.mu.Unlock()
}
func (r *recordingObserver) OnAbort(uint64) {
	r.mu.Lock()
	r.aborts++
	r.mu.Unlock()
}

func TestLockTableShared(t *testing.T) {
	m, _ := newTestManager(t, false)
	m.CreateTable("Airlines", userSchema())
	tx, _ := m.Begin(Serializable)
	if err := tx.LockTableShared("Airlines"); err != nil {
		t.Fatal(err)
	}
	// A writer must now block until tx finishes — this is exactly how
	// quasi-read repeatability is enforced for entanglement partners.
	w, _ := m.Begin(Serializable)
	done := make(chan error, 1)
	go func() {
		_, err := w.Insert("Airlines", types.Tuple{types.Int(125), types.Str("United")})
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("write proceeded against quasi-read lock")
	case <-time.After(20 * time.Millisecond):
	}
	tx.Commit()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	w.Commit()
}

func TestConcurrentIncrementsSerialize(t *testing.T) {
	// Classic lost-update check: concurrent read-modify-write transactions
	// must serialize under Strict 2PL; retry deadlock victims.
	m, _ := newTestManager(t, false)
	m.CreateTable("Counter", types.NewSchema(types.Column{Name: "n", Type: types.KindInt}))
	init, _ := m.Begin(Serializable)
	id, _ := init.Insert("Counter", types.Tuple{types.Int(0)})
	init.Commit()

	const workers, perWorker = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				for {
					tx, _ := m.Begin(Serializable)
					rows, err := tx.Scan("Counter")
					if err != nil {
						tx.Abort()
						continue
					}
					n := rows[0][0].Int64()
					if err := tx.Update("Counter", id, types.Tuple{types.Int(n + 1)}); err != nil {
						tx.Abort()
						continue
					}
					if err := tx.Commit(); err == nil {
						break
					}
					tx.Abort()
				}
			}
		}()
	}
	wg.Wait()
	check, _ := m.Begin(Serializable)
	rows, _ := check.Scan("Counter")
	if got := rows[0][0].Int64(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d (lost updates)", got, workers*perWorker)
	}
	check.Commit()
}
