package txn

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/wal"
)

// The checkpoint sweep crashes a checkpoint at each of its file operations
// — create, write, fsync, rename, remove, through the "wal.checkpoint"
// failpoint, which fails the operation undone — and, in every crash state
// that holds one of the checkpoint's own unfinished files, at every byte of
// that file. The checkpoint runs while a committer commits, an open
// transaction holds an uncommitted row and a prepared participant waits
// for its decision. The files a crash leaves are copied once the committer
// stops, so every commit it acknowledged is in them and none other.

const (
	sweepPrepGroup = 77
	sweepCommitDec = 901 // a coordinator commit decision logged before the checkpoint
	sweepAbortDec  = 902 // and an abort decision
	sweepPreloaded = 3   // rows committed before the checkpoint
	sweepMaxCommit = 20  // the committer's commits at most
)

type ckptScenario struct {
	dir, path string
	log       *wal.Log
	m         *Manager
	prepared  *Txn
}

// newCkptScenario builds the live state: table T with a declared index,
// sweepPreloaded committed rows, two logged decisions, an open transaction
// that inserted k=-1 and a participant prepared in sweepPrepGroup after
// inserting k=-2.
func newCkptScenario(t *testing.T, reg *fault.Registry) *ckptScenario {
	t.Helper()
	s := &ckptScenario{dir: t.TempDir()}
	s.path = filepath.Join(s.dir, "db.wal")
	log, err := wal.Open(s.path, wal.Options{Faults: reg})
	if err != nil {
		t.Fatal(err)
	}
	s.log = log
	s.m = NewManager(storage.NewCatalog(), lock.New(time.Second), log)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	schema := types.NewSchema(types.Column{Name: "k", Type: types.KindInt}, types.Column{Name: "v", Type: types.KindString})
	_, err = s.m.CreateTable("T", schema)
	must(err)
	must(s.m.CreateIndex("T", "t_k", []string{"k"}))
	for k := 1; k <= sweepPreloaded; k++ {
		tx, _ := s.m.Begin(Serializable)
		_, err := tx.Insert("T", types.Tuple{types.Int(int64(k)), types.Str("init")})
		must(err)
		must(tx.Commit())
	}
	must(s.m.LogDecision(sweepCommitDec, true))
	must(s.m.LogDecision(sweepAbortDec, false))
	open, _ := s.m.Begin(Serializable)
	_, err = open.Insert("T", types.Tuple{types.Int(-1), types.Str("open")})
	must(err)
	s.prepared, _ = s.m.Begin(Serializable)
	_, err = s.prepared.Insert("T", types.Tuple{types.Int(-2), types.Str("prepared")})
	must(err)
	must(s.m.Prepare(s.prepared, sweepPrepGroup))
	return s
}

// commit is the committer's i-th transaction (from 1): it inserts k=3+i
// and sets row 0's v to "c<i>".
func (s *ckptScenario) commit(i int) error {
	tx, _ := s.m.Begin(Serializable)
	if _, err := tx.Insert("T", types.Tuple{types.Int(int64(sweepPreloaded + i)), types.Str("new")}); err != nil {
		tx.Abort()
		return err
	}
	if err := tx.Update("T", 0, types.Tuple{types.Int(1), types.Str(fmt.Sprint("c", i))}); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// sweepWant is T after the committer's first n commits, by k.
func sweepWant(n int) map[int64]string {
	want := map[int64]string{1: "init"}
	if n > 0 {
		want[1] = fmt.Sprint("c", n)
	}
	for k := 2; k <= sweepPreloaded+n; k++ {
		want[int64(k)] = "init"
		if k > sweepPreloaded {
			want[int64(k)] = "new"
		}
	}
	return want
}

// run takes the checkpoint with the failpoint armed to fail the operation
// after `step` of them, while the committer runs. It returns whether the
// checkpoint crashed, the commits acknowledged, and whether any of them
// was acknowledged while the checkpoint was running.
func (s *ckptScenario) run(t *testing.T, reg *fault.Registry, step int) (crashed bool, acked int, overlapped bool) {
	t.Helper()
	var n atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	warm, start := make(chan struct{}), make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= sweepMaxCommit && !stop.Load(); i++ {
			if i == 3 {
				close(warm)
				<-start // the rest race the checkpoint
			}
			if s.commit(i) != nil {
				return // the log latched after a failed switch
			}
			n.Store(int64(i))
		}
	}()
	<-warm
	reg.Enable("wal.checkpoint", fault.Trigger{After: step, OneShot: true}, fault.Action{Kind: fault.KindError})
	before := n.Load()
	close(start)
	err := s.m.Checkpoint()
	overlapped = n.Load() > before
	stop.Store(true)
	wg.Wait()
	crashed = errors.Is(err, fault.ErrInjected)
	if err != nil && !crashed {
		t.Fatalf("step %d: checkpoint: %v", step, err)
	}
	s.log.Close()
	return crashed, int(n.Load()), overlapped
}

// copyDir copies the files of src into a fresh directory, cutting the one
// named cut (if any) to keep bytes.
func copyDir(t *testing.T, src, cut string, keep int) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == cut {
			data = data[:keep]
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// checkRecovered recovers the files in dir and checks them against the
// model after `acked` commits.
func checkRecovered(t *testing.T, label, dir string, acked int, prepared wal.TxID) {
	t.Helper()
	cat := storage.NewCatalog()
	st, err := wal.RecoverAll(filepath.Join(dir, "db.wal"), cat)
	if err != nil {
		t.Fatalf("%s: recovery: %v", label, err)
	}
	tbl, err := cat.Get("T")
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	got := make(map[int64]string)
	for _, row := range tbl.All() {
		got[row[0].Int64()] = row[1].Str64()
	}
	if want := sweepWant(acked); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: recovered %v, want the state after %d commits %v", label, got, acked, want)
	}
	if want := uint64(sweepPreloaded + acked); st.MaxCSN != want {
		t.Fatalf("%s: MaxCSN %d, want %d", label, st.MaxCSN, want)
	}
	if ixs := tbl.Indexes(); len(ixs) != 1 || ixs[0].Name != "t_k" {
		t.Fatalf("%s: indexes %v, want t_k", label, ixs)
	}
	recs := st.InDoubtRecords[prepared]
	if st.InDoubt[prepared] != sweepPrepGroup || len(st.InDoubt) != 1 || len(recs) != 1 ||
		recs[0].Type != wal.RecInsert || recs[0].Row[0].Int64() != -2 {
		t.Fatalf("%s: in doubt %v with records %v, want tx %d of group %d with its insert", label, st.InDoubt, recs, prepared, sweepPrepGroup)
	}
	if c, ok := st.Decisions[sweepCommitDec]; !ok || !c {
		t.Fatalf("%s: commit decision answered %v/%v", label, c, ok)
	}
	if c, ok := st.Decisions[sweepAbortDec]; !ok || c {
		t.Fatalf("%s: abort decision answered %v/%v", label, c, ok)
	}
}

// TestCheckpointCrashSweep: every crash state of a checkpoint taken under
// live commits, an open transaction and an in-doubt participant recovers
// exactly the acknowledged commits, keeps the participant in doubt with its
// records, answers every logged decision, and keeps the declared index.
func TestCheckpointCrashSweep(t *testing.T) {
	overlaps, cuts := 0, 0
	for step := 0; ; step++ {
		reg := fault.NewRegistry(1)
		s := newCkptScenario(t, reg)
		crashed, acked, overlapped := s.run(t, reg, step)
		if overlapped {
			overlaps++
		}
		prepared := wal.TxID(s.prepared.ID())
		label := fmt.Sprintf("crash at operation %d", step)
		if !crashed {
			label = "completed checkpoint"
		}
		checkRecovered(t, label, copyDir(t, s.dir, "", 0), acked, prepared)
		// The checkpoint's unfinished files, cut at every byte: the next
		// segment while the live log is still in place, and the snapshot
		// before its rename.
		for _, name := range []string{"db.wal.next", "db.wal.snap.tmp"} {
			data, err := os.ReadFile(filepath.Join(s.dir, name))
			if err != nil {
				continue
			}
			if _, err := os.Stat(s.path); name == "db.wal.next" && err != nil {
				continue // renamed into place by recovery: complete and synced
			}
			for keep := 0; keep < len(data); keep++ {
				cuts++
				checkRecovered(t, fmt.Sprintf("%s, %s cut to %d bytes", label, name, keep), copyDir(t, s.dir, name, keep), acked, prepared)
			}
		}
		if !crashed {
			if step < 8 {
				t.Fatalf("the checkpoint took only %d file operations", step)
			}
			t.Logf("%d file operations, %d cut files, commits during %d checkpoints", step, cuts, overlaps)
			break
		}
	}
	if overlaps == 0 {
		t.Fatal("no commit was acknowledged while a checkpoint ran")
	}
	if cuts == 0 {
		t.Fatal("no crash state held an unfinished checkpoint file")
	}
}
