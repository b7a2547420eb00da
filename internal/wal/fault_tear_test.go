package wal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/storage"
	"repro/internal/types"
)

// Failpoint-driven torn-write sweeps. PR 1's TestAppendBatchTornTail cut the
// on-disk bytes after the fact; here the tear is injected through the
// "wal.append.short" failpoint at write time, which additionally pins the
// fail-stop contract (the latch) that post-hoc truncation cannot see: a torn
// append must leave the log refusing further appends, or later records would
// bury the tear mid-file and become unrecoverable.

// groupBatch is the victim batch: a two-member entanglement group made
// durable by one batched append, as the run scheduler's group commit does.
func groupBatch() []*Record {
	return []*Record{
		Insert(3, "User", 10, types.Tuple{types.Int(3), types.Str("LAX")}),
		Insert(4, "User", 11, types.Tuple{types.Int(4), types.Str("ORD")}),
		GroupCommit([]TxID{3, 4}, 9),
	}
}

// encodedSize measures a batch's on-disk size by writing it cleanly once.
func encodedSize(t *testing.T, rs []*Record) int {
	t.Helper()
	path := filepath.Join(t.TempDir(), "probe.wal")
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(rs); err != nil {
		t.Fatal(err)
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return len(data)
}

// seedCommittedGroup appends the durable prefix: one fully committed
// two-member group that every recovery below must preserve.
func seedCommittedGroup(t *testing.T, l *Log) {
	t.Helper()
	if err := l.AppendBatch([]*Record{
		CreateTable("User", usersSchema()),
		Insert(1, "User", 0, types.Tuple{types.Int(1), types.Str("SFO")}),
		Insert(2, "User", 1, types.Tuple{types.Int(2), types.Str("NYC")}),
		GroupCommit([]TxID{1, 2}, 5),
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFaultShortWriteSweep tears the final group-commit batch at every byte
// offset via the failpoint and recovers each time: the committed prefix
// group always survives intact, the torn group is all-or-nothing, and the
// log is latched after the tear.
func TestFaultShortWriteSweep(t *testing.T) {
	batch := groupBatch()
	total := encodedSize(t, batch)
	for cut := 0; cut <= total; cut++ {
		reg := fault.NewRegistry(1)
		path := filepath.Join(t.TempDir(), "wal.log")
		l, err := Open(path, Options{Faults: reg})
		if err != nil {
			t.Fatal(err)
		}
		seedCommittedGroup(t, l)
		reg.Enable("wal.append.short", fault.Trigger{OneShot: true},
			fault.Action{Kind: fault.KindShortWrite, KeepBytes: cut})

		err = l.AppendBatch(groupBatch())
		if cut < total {
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("cut %d: torn append err = %v, want injected", cut, err)
			}
		} else if err != nil && !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("cut %d: %v", cut, err)
		}
		// Fail-stop latch: the log must refuse everything after a tear.
		if lerr := l.Append(Commit(99, 0)); lerr == nil || !strings.Contains(lerr.Error(), "log failed") {
			t.Fatalf("cut %d: append after tear = %v, want latched log", cut, lerr)
		}
		l.Close()

		cat := storage.NewCatalog()
		if _, err := RecoverAll(path, cat); err != nil {
			t.Fatalf("cut %d: recover: %v", cut, err)
		}
		tbl, err := cat.Get("User")
		if err != nil {
			t.Fatalf("cut %d: table lost: %v", cut, err)
		}
		// Durable prefix group: always both rows.
		for _, id := range []storage.RowID{0, 1} {
			if _, ok := tbl.GetTx(0, id); !ok {
				t.Fatalf("cut %d: committed prefix row %d lost", cut, id)
			}
		}
		// Torn group: both rows or neither, never one.
		_, a := tbl.GetTx(0, 10)
		_, b := tbl.GetTx(0, 11)
		if a != b {
			t.Fatalf("cut %d: torn group half-applied (row10=%v row11=%v)", cut, a, b)
		}
		if a && cut < total {
			// The batch's GroupCommit is its last record; any true tear
			// must lose it and with it the whole group.
			t.Fatalf("cut %d of %d: torn group recovered as committed", cut, total)
		}
	}
}

// TestFaultTearAtCheckpointBoundary tears the first post-checkpoint batch:
// the snapshot+log boundary from PR 5. Recovery must always keep every
// snapshotted row, never rewind the commit clock below the checkpoint CSN,
// and apply the torn post-checkpoint group all-or-nothing.
func TestFaultTearAtCheckpointBoundary(t *testing.T) {
	const ckptCSN = 7
	batch := groupBatch()
	total := encodedSize(t, batch)
	for cut := 0; cut <= total; cut++ {
		reg := fault.NewRegistry(1)
		path := filepath.Join(t.TempDir(), "wal.log")
		l, err := Open(path, Options{Faults: reg})
		if err != nil {
			t.Fatal(err)
		}
		// Build the pre-checkpoint state in a live catalog, then checkpoint:
		// snapshot + truncated log, exactly PR 5's boundary.
		cat := storage.NewCatalog()
		tbl, _ := cat.Create("User", usersSchema())
		load(tbl, types.Tuple{types.Int(1), types.Str("SFO")})
		load(tbl, types.Tuple{types.Int(2), types.Str("NYC")})
		seedCommittedGroup(t, l)
		if err := Checkpoint(l, cat, ckptCSN); err != nil {
			t.Fatal(err)
		}

		reg.Enable("wal.append.short", fault.Trigger{OneShot: true},
			fault.Action{Kind: fault.KindShortWrite, KeepBytes: cut})
		if err := l.AppendBatch(groupBatch()); cut < total && !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("cut %d: torn append err = %v", cut, err)
		}
		l.Close()

		fresh := storage.NewCatalog()
		stats, err := RecoverAll(path, fresh)
		if err != nil {
			t.Fatalf("cut %d: recover: %v", cut, err)
		}
		if stats.MaxCSN < ckptCSN {
			t.Fatalf("cut %d: clock rewound: MaxCSN %d < checkpoint %d", cut, stats.MaxCSN, ckptCSN)
		}
		ftbl, err := fresh.Get("User")
		if err != nil {
			t.Fatalf("cut %d: table lost: %v", cut, err)
		}
		if ftbl.Len() < 2 {
			t.Fatalf("cut %d: snapshot rows lost: %d", cut, ftbl.Len())
		}
		_, a := ftbl.GetTx(0, 10)
		_, b := ftbl.GetTx(0, 11)
		if a != b {
			t.Fatalf("cut %d: post-checkpoint group half-applied", cut)
		}
		if a {
			if stats.MaxCSN != 9 {
				t.Fatalf("cut %d: group applied but MaxCSN %d != 9", cut, stats.MaxCSN)
			}
		} else if ftbl.Len() != 2 {
			t.Fatalf("cut %d: rows = %d, want the 2 snapshot rows", cut, ftbl.Len())
		}
	}
}

// TestFaultAppendErrorLatches: a failed write leaves nothing on disk and
// latches the log.
func TestFaultAppendErrorLatches(t *testing.T) {
	reg := fault.NewRegistry(1)
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, Options{Faults: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	seedCommittedGroup(t, l)
	reg.Enable("wal.append.error", fault.Trigger{OneShot: true}, fault.Action{Kind: fault.KindError})
	if err := l.Append(Commit(9, 0)); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("append err = %v, want injected", err)
	}
	if err := l.Append(Commit(10, 0)); err == nil || !strings.Contains(err.Error(), "log failed") {
		t.Fatalf("append after injected failure = %v, want latched", err)
	}
	recs, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 { // the seed batch only; the failed commit never landed
		t.Fatalf("records on disk = %d, want 4", len(recs))
	}
}

// TestFaultSyncErrorLatches: an fsync failure after a durable-class write
// latches the log even though the bytes landed — the durability promise was
// not kept, so acknowledging later commits would be a lie.
func TestFaultSyncErrorLatches(t *testing.T) {
	reg := fault.NewRegistry(1)
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, Options{Sync: true, Faults: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	reg.Enable("wal.sync.error", fault.Trigger{OneShot: true}, fault.Action{Kind: fault.KindError})
	if err := l.Append(Commit(1, 1)); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("sync-failed append err = %v, want injected", err)
	}
	if err := l.Append(Commit(2, 2)); err == nil || !strings.Contains(err.Error(), "log failed") {
		t.Fatalf("append after sync failure = %v, want latched", err)
	}
	// A non-durable record (a redo record) would not have synced anyway,
	// but the latch is unconditional: fail-stop means fail-stop.
	if err := l.Append(Insert(3, "User", 0, types.Tuple{types.Int(3), types.Str("LAX")})); err == nil {
		t.Fatal("non-durable append slipped past the latch")
	}
}
