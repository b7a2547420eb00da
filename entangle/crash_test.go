package entangle

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/wal"
)

// Crash-atomicity property: recovering the database from ANY prefix of the
// write-ahead log must yield a state where every entangled pair's bookings
// are all-or-nothing — the §4 recovery guarantee backed by atomic
// GroupCommit records. We simulate crashes by snapshotting the WAL file's
// bytes at random moments while a workload of entangled pairs runs, then
// recover each snapshot into a fresh catalog and check the invariant.

func TestCrashRecoveryGroupAtomicity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "crash.wal")
	db, err := Open(Options{Path: path, RunFrequency: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ExecDDL(`
		CREATE TABLE Flights (fno INT, dest VARCHAR);
		CREATE TABLE Bookings (name VARCHAR, fno INT);
	`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`
		INSERT INTO Flights VALUES (122, 'LA');
		INSERT INTO Flights VALUES (123, 'LA');
	`); err != nil {
		t.Fatal(err)
	}

	// Snapshot the WAL concurrently with the workload.
	var stop atomic.Bool
	var snapshots [][]byte
	var snapMu sync.Mutex
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for !stop.Load() {
			data, err := os.ReadFile(path)
			if err == nil {
				cp := make([]byte, len(data))
				copy(cp, data)
				snapMu.Lock()
				snapshots = append(snapshots, cp)
				snapMu.Unlock()
			}
		}
	}()

	const pairs = 40
	var wg sync.WaitGroup
	for p := 0; p < pairs; p++ {
		a := fmt.Sprintf("a%d", p)
		b := fmt.Sprintf("b%d", p)
		for _, pair := range [][2]string{{a, b}, {b, a}} {
			wg.Add(1)
			go func(me, them string) {
				defer wg.Done()
				script := fmt.Sprintf(`
				BEGIN TRANSACTION WITH TIMEOUT 10 SECONDS;
				SELECT '%s', fno AS @fno INTO ANSWER R
				WHERE fno IN (SELECT fno FROM Flights WHERE dest='LA')
				AND ('%s', fno) IN ANSWER R
				CHOOSE 1;
				INSERT INTO Bookings VALUES ('%s', @fno);
				COMMIT;`, me, them, me)
				h, err := db.SubmitScript(script)
				if err != nil {
					t.Error(err)
					return
				}
				if o := h.Wait(); o.Status != StatusCommitted {
					t.Errorf("%s: %+v", me, o)
				}
			}(pair[0], pair[1])
		}
	}
	wg.Wait()
	stop.Store(true)
	snapWG.Wait()

	// Add the final log as one more "crash point".
	final, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snapshots = append(snapshots, final)
	if len(snapshots) < 5 {
		t.Fatalf("only %d WAL snapshots captured; workload too fast for the test to mean anything", len(snapshots))
	}

	fullPairs := 0
	for i, snap := range snapshots {
		crashPath := filepath.Join(dir, fmt.Sprintf("crash-%d.wal", i))
		if err := os.WriteFile(crashPath, snap, 0o644); err != nil {
			t.Fatal(err)
		}
		cat := storage.NewCatalog()
		if _, err := wal.RecoverAll(crashPath, cat); err != nil {
			t.Fatalf("snapshot %d (%d bytes): %v", i, len(snap), err)
		}
		if !cat.Has("Bookings") {
			continue // crashed before DDL
		}
		tbl, _ := cat.Get("Bookings")
		byPair := make(map[string][]string)
		tbl.ScanTx(0, func(_ storage.RowID, row types.Tuple) bool {
			name := row[0].Str64()
			byPair[name[1:]] = append(byPair[name[1:]], name)
			return true
		})
		for pid, members := range byPair {
			if len(members) != 2 {
				t.Fatalf("snapshot %d: pair %s recovered partially: %v (group commit violated)", i, pid, members)
			}
			fullPairs++
		}
	}
	if fullPairs == 0 {
		t.Log("warning: no snapshot contained committed pairs; invariant vacuously true")
	}
	// The final snapshot must contain all pairs.
	catFinal := storage.NewCatalog()
	if _, err := wal.RecoverAll(filepath.Join(dir, fmt.Sprintf("crash-%d.wal", len(snapshots)-1)), catFinal); err != nil {
		t.Fatal(err)
	}
	tbl, _ := catFinal.Get("Bookings")
	if tbl.Len() != 2*pairs {
		t.Fatalf("final recovery has %d bookings, want %d", tbl.Len(), 2*pairs)
	}
}

// TestCrashDuringGroupCommitBatch kills the database mid-batch: a single
// run commits two entanglement groups through one batched group-commit WAL
// flush, and we simulate a crash at EVERY byte offset of the resulting log
// — including the offsets inside the batched write, between and inside its
// two GroupCommit records. Recovery must deliver each coordinated group
// all-or-nothing at every crash point: a tear between the records loses the
// second group whole, a tear inside a record loses that group whole, and no
// crash point may ever resurrect half a pair.
func TestCrashDuringGroupCommitBatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "batch.wal")
	// RunFrequency 4 pools both pairs into ONE run, whose finalize phase
	// retires both groups in a single AppendBatch; the long retry interval
	// keeps the ticker from starting a smaller run early.
	db, err := Open(Options{Path: path, RunFrequency: 4, RetryInterval: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ExecDDL(`
		CREATE TABLE Flights (fno INT, dest VARCHAR);
		CREATE TABLE Bookings (name VARCHAR, fno INT);
	`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`
		INSERT INTO Flights VALUES (122, 'LA');
		INSERT INTO Flights VALUES (123, 'LA');
	`); err != nil {
		t.Fatal(err)
	}

	var handles []*Handle
	for _, pid := range []string{"p0", "p1"} {
		a, b := pid+"a", pid+"b"
		for _, pair := range [][2]string{{a, b}, {b, a}} {
			script := fmt.Sprintf(`
				BEGIN TRANSACTION WITH TIMEOUT 10 SECONDS;
				SELECT '%s', fno AS @fno INTO ANSWER R
				WHERE fno IN (SELECT fno FROM Flights WHERE dest='LA')
				AND ('%s', fno) IN ANSWER R
				CHOOSE 1;
				INSERT INTO Bookings VALUES ('%s', @fno);
				COMMIT;`, pair[0], pair[1], pair[0])
			h, err := db.SubmitScript(script)
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		}
	}
	for i, h := range handles {
		if o := h.Wait(); o.Status != StatusCommitted {
			t.Fatalf("tx %d: %+v", i, o)
		}
	}
	stats := db.Stats()
	if stats.GroupCommits != 2 {
		t.Fatalf("GroupCommits = %d, want 2 (two pairs in one run)", stats.GroupCommits)
	}
	if stats.CommitBatches != 1 {
		t.Fatalf("CommitBatches = %d, want 1 (both groups in one batched flush)", stats.CommitBatches)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pairsAt := make(map[int]bool) // committed-pair counts observed across crash points
	for cut := 0; cut <= len(data); cut++ {
		crashPath := filepath.Join(dir, "cut.wal")
		if err := os.WriteFile(crashPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cat := storage.NewCatalog()
		if _, err := wal.RecoverAll(crashPath, cat); err != nil {
			t.Fatalf("crash at byte %d: recovery failed: %v", cut, err)
		}
		if !cat.Has("Bookings") {
			continue
		}
		tbl, _ := cat.Get("Bookings")
		byPair := make(map[string]int)
		tbl.ScanTx(0, func(_ storage.RowID, row types.Tuple) bool {
			name := row[0].Str64()
			byPair[name[:2]]++
			return true
		})
		for pid, n := range byPair {
			if n != 2 {
				t.Fatalf("crash at byte %d: pair %s recovered %d of 2 members (group atomicity violated)", cut, pid, n)
			}
		}
		pairsAt[len(byPair)] = true
	}
	// The sweep must actually have crossed a mid-batch tear: some prefix
	// ends after the first GroupCommit record of the batch but before the
	// second, recovering exactly one whole pair; and the full log both.
	if !pairsAt[1] {
		t.Fatal("no crash point recovered exactly one pair; the mid-batch tear was never exercised")
	}
	if !pairsAt[2] {
		t.Fatal("full log did not recover both pairs")
	}
}

// TestCheckpointCSNSurvivesRestart is the regression test for the lost
// commit clock: a checkpoint truncates the log, so without the snapshot-
// header CSN a restart would reseed the clock at 0 and reuse sequence
// numbers that version visibility and partition fingerprints already
// depend on. The clock must strictly advance across checkpoint + restart.
func TestCheckpointCSNSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "csn.wal")
	db, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ExecDDL("CREATE TABLE T (a INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO T VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	csn0 := db.Engine().Txm().CSN()
	if csn0 == 0 {
		t.Fatal("commit clock did not advance before checkpoint")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	// The truncated log alone carries no commits; the snapshot header must
	// reseed the clock.
	cat := storage.NewCatalog()
	stats, err := wal.RecoverAll(path, cat)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SnapshotCSN != csn0 || stats.MaxCSN != csn0 {
		t.Fatalf("recovery stats SnapshotCSN=%d MaxCSN=%d, want both %d", stats.SnapshotCSN, stats.MaxCSN, csn0)
	}

	db2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Engine().Txm().CSN(); got != csn0 {
		t.Fatalf("restart seeded clock at %d, want %d", got, csn0)
	}
	if _, err := db2.Exec("INSERT INTO T VALUES (99)"); err != nil {
		t.Fatal(err)
	}
	if got := db2.Engine().Txm().CSN(); got <= csn0 {
		t.Fatalf("clock did not strictly advance after restart: %d <= %d", got, csn0)
	}
	res, err := db2.Query("SELECT a FROM T")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("recovered %d rows, want 4", len(res.Rows))
	}
}

// TestCheckpointConcurrentCommitsAtomic hammers Checkpoint against a
// stream of two-table transactions (each commits matching rows to L and R)
// and treats every checkpoint boundary as a crash point: the (snapshot,
// log) file pair captured after each checkpoint must recover to a state
// where L and R agree exactly — a torn snapshot (L scanned pre-commit, R
// post-commit) with the repairing log records truncated away would break
// the invariant, and so would any committed write lost by truncation.
func TestCheckpointConcurrentCommitsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.wal")
	db, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ExecDDL(`
		CREATE TABLE L (v INT);
		CREATE TABLE R (v INT);
	`); err != nil {
		t.Fatal(err)
	}

	const writers = 4
	const perWriter = 50
	var wg sync.WaitGroup
	var committed atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				v := int64(w*perWriter + i)
				o := db.RunDirect(Program{Body: func(tx *Tx) error {
					if _, err := tx.Insert("L", Values(Int(v))); err != nil {
						return err
					}
					_, err := tx.Insert("R", Values(Int(v)))
					return err
				}})
				if o.Status != StatusCommitted {
					t.Errorf("writer %d insert %d: %+v", w, i, o)
					return
				}
				committed.Add(1)
				// Pace the stream so plenty of checkpoints land between
				// (and around) commits instead of the writers finishing
				// inside the first checkpoint.
				time.Sleep(500 * time.Microsecond)
			}
		}(w)
	}

	// Checkpoint continuously while the writers commit, capturing the
	// (snapshot, log) pair right after each checkpoint — a crash at that
	// moment recovers exactly these bytes.
	type capture struct{ snap, log []byte }
	var captures []capture
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for stop := false; !stop; {
		select {
		case <-done:
			stop = true
		case <-time.After(2 * time.Millisecond):
		}
		if err := db.Checkpoint(); err != nil {
			t.Errorf("checkpoint: %v", err)
			break
		}
		snap, err := os.ReadFile(wal.SnapshotPath(path))
		if err != nil {
			t.Fatal(err)
		}
		logBytes, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		captures = append(captures, capture{snap, logBytes})
	}
	if t.Failed() {
		return
	}
	if len(captures) < 3 {
		t.Fatalf("only %d checkpoints raced the writers; test too weak", len(captures))
	}

	check := func(label string, snap, logBytes []byte, wantRows int) {
		cdir := t.TempDir()
		cpath := filepath.Join(cdir, "crash.wal")
		if err := os.WriteFile(cpath, logBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wal.SnapshotPath(cpath), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		cat := storage.NewCatalog()
		if _, err := wal.RecoverAll(cpath, cat); err != nil {
			t.Fatalf("%s: recovery: %v", label, err)
		}
		rows := func(table string) map[int64]int {
			tbl, err := cat.Get(table)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			out := make(map[int64]int)
			tbl.ScanTx(0, func(_ storage.RowID, r types.Tuple) bool {
				out[r[0].Int64()]++
				return true
			})
			return out
		}
		l, r := rows("L"), rows("R")
		if len(l) != len(r) {
			t.Fatalf("%s: torn commit recovered: %d L rows vs %d R rows", label, len(l), len(r))
		}
		for v, n := range l {
			if n != 1 || r[v] != 1 {
				t.Fatalf("%s: value %d recovered L=%d R=%d times", label, v, n, r[v])
			}
		}
		if wantRows >= 0 && len(l) != wantRows {
			t.Fatalf("%s: recovered %d committed pairs, want %d", label, len(l), wantRows)
		}
	}
	// Validate every crash point when few, a spread when many.
	stride := 1
	if len(captures) > 60 {
		stride = len(captures) / 60
	}
	for i := 0; i < len(captures); i += stride {
		check(fmt.Sprintf("capture %d", i), captures[i].snap, captures[i].log, -1)
	}
	// The final durable state must hold every committed write.
	finalSnap, err := os.ReadFile(wal.SnapshotPath(path))
	if err != nil {
		t.Fatal(err)
	}
	finalLog, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	check("final", finalSnap, finalLog, int(committed.Load()))
}
