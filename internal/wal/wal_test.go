package wal

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/types"
)

// load stores row in tbl committed at CSN 0, as a bulk load would.
func load(tbl *storage.Table, row types.Tuple) (storage.RowID, error) {
	id, err := tbl.InsertTx(1, row)
	if err == nil {
		tbl.Stamp(1, id, 0)
	}
	return id, err
}

func tmpLog(t *testing.T) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, path
}

// writeSnapshot writes cat's snapshot as of csn for logPath, naming the
// log's first segment.
func writeSnapshot(t *testing.T, logPath string, cat *storage.Catalog, csn uint64) {
	t.Helper()
	if err := os.WriteFile(SnapshotPath(logPath), encodeSnapshot(cat, csn, 0), 0o644); err != nil {
		t.Fatal(err)
	}
}

func usersSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "uid", Type: types.KindInt},
		types.Column{Name: "hometown", Type: types.KindString},
	)
}

func TestAppendReadRoundTrip(t *testing.T) {
	l, path := tmpLog(t)
	recs := []*Record{
		Begin(1),
		CreateTable("User", usersSchema()),
		Insert(1, "User", 0, types.Tuple{types.Int(36513), types.Str("SFO")}),
		Update(1, "User", 0, types.Tuple{types.Int(36513), types.Str("SFO")}, types.Tuple{types.Int(36513), types.Str("LAX")}),
		Delete(1, "User", 0, types.Tuple{types.Int(36513), types.Str("LAX")}),
		Entangle(7, []TxID{1, 2}),
		GroupCommit([]TxID{1, 2}, 0),
		Abort(3),
		Commit(4, 0),
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i, r := range got {
		w := recs[i]
		if r.Type != w.Type || r.Tx != w.Tx || r.Table != w.Table || r.RowID != w.RowID {
			t.Errorf("record %d: got %+v want %+v", i, r, w)
		}
		if !r.Row.Equal(w.Row) || !r.Old.Equal(w.Old) {
			t.Errorf("record %d images differ", i)
		}
		if len(r.Group) != len(w.Group) {
			t.Errorf("record %d group differs: %v vs %v", i, r.Group, w.Group)
		}
	}
}

func TestReadAllMissingFile(t *testing.T) {
	recs, err := ReadAll(filepath.Join(t.TempDir(), "nope.log"))
	if err != nil || recs != nil {
		t.Fatalf("missing file: %v %v", recs, err)
	}
}

func TestTornTailIgnored(t *testing.T) {
	l, path := tmpLog(t)
	if err := l.Append(Begin(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Commit(1, 0)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Truncate mid-record to simulate a torn write.
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Type != RecBegin {
		t.Fatalf("recs = %+v", recs)
	}
}

func TestCorruptFinalRecordTreatedAsTorn(t *testing.T) {
	l, path := tmpLog(t)
	l.Append(Begin(1))
	l.Append(Commit(1, 0))
	l.Close()
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF // flip a bit in the last record's payload
	os.WriteFile(path, data, 0o644)
	recs, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("want 1 surviving record, got %d", len(recs))
	}
}

func TestCorruptMidLogReported(t *testing.T) {
	l, path := tmpLog(t)
	l.Append(Begin(1))
	l.Append(Commit(1, 0))
	l.Close()
	data, _ := os.ReadFile(path)
	data[9] ^= 0xFF // corrupt the first record's payload
	os.WriteFile(path, data, 0o644)
	if _, err := ReadAll(path); err == nil {
		t.Fatal("mid-log corruption not reported")
	}
}

func seedLogForRecovery(t *testing.T, l *Log) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(l.Append(CreateTable("User", usersSchema())))
	// tx1: committed insert.
	must(l.Append(Begin(1)))
	must(l.Append(Insert(1, "User", 0, types.Tuple{types.Int(1), types.Str("SFO")})))
	must(l.Append(Commit(1, 0)))
	// tx2: aborted insert (no commit record).
	must(l.Append(Begin(2)))
	must(l.Append(Insert(2, "User", 1, types.Tuple{types.Int(2), types.Str("NYC")})))
	must(l.Append(Abort(2)))
	// tx3: in-flight at crash (no outcome record).
	must(l.Append(Begin(3)))
	must(l.Append(Insert(3, "User", 2, types.Tuple{types.Int(3), types.Str("LAX")})))
}

func TestRecoverRedoOnlyCommitted(t *testing.T) {
	l, path := tmpLog(t)
	seedLogForRecovery(t, l)
	cat := storage.NewCatalog()
	stats, err := RecoverAll(path, cat)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := cat.Get("User")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Fatalf("recovered %d rows, want 1", tbl.Len())
	}
	row, ok := tbl.GetTx(0, 0)
	if !ok || row[0].Int64() != 1 {
		t.Fatalf("recovered row = %v", row)
	}
	if stats.TxCommitted != 1 || stats.TxRolledBack != 2 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestRecoverUpdateDelete(t *testing.T) {
	l, path := tmpLog(t)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(l.Append(CreateTable("User", usersSchema())))
	must(l.Append(Begin(1)))
	must(l.Append(Insert(1, "User", 0, types.Tuple{types.Int(1), types.Str("SFO")})))
	must(l.Append(Insert(1, "User", 1, types.Tuple{types.Int(2), types.Str("NYC")})))
	must(l.Append(Commit(1, 0)))
	must(l.Append(Begin(2)))
	must(l.Append(Update(2, "User", 0, types.Tuple{types.Int(1), types.Str("SFO")}, types.Tuple{types.Int(1), types.Str("LAX")})))
	must(l.Append(Delete(2, "User", 1, types.Tuple{types.Int(2), types.Str("NYC")})))
	must(l.Append(Commit(2, 0)))
	cat := storage.NewCatalog()
	if _, err := RecoverAll(path, cat); err != nil {
		t.Fatal(err)
	}
	tbl, _ := cat.Get("User")
	if tbl.Len() != 1 {
		t.Fatalf("rows = %d", tbl.Len())
	}
	row, _ := tbl.GetTx(0, 0)
	if row[1].Str64() != "LAX" {
		t.Fatalf("row = %v", row)
	}
}

// TestRecoverPartialGroupRolledBack checks the §4 rule: if members of an
// entanglement group commit individually and one is missing its commit at
// the crash, the entire group is rolled back.
func TestRecoverPartialGroupRolledBack(t *testing.T) {
	l, path := tmpLog(t)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(l.Append(CreateTable("User", usersSchema())))
	must(l.Append(Begin(1)))
	must(l.Append(Begin(2)))
	must(l.Append(Entangle(100, []TxID{1, 2})))
	must(l.Append(Insert(1, "User", 0, types.Tuple{types.Int(1), types.Str("SFO")})))
	must(l.Append(Insert(2, "User", 1, types.Tuple{types.Int(2), types.Str("NYC")})))
	// Buggy individual commit of tx1 only; crash before tx2 commits.
	must(l.Append(Commit(1, 0)))
	cat := storage.NewCatalog()
	stats, err := RecoverAll(path, cat)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := cat.Get("User")
	if tbl.Len() != 0 {
		t.Fatalf("widowed group survived recovery: %d rows", tbl.Len())
	}
	if stats.GroupsRolledBack != 1 || stats.GroupsRecovered != 0 {
		t.Errorf("stats = %+v", stats)
	}
}

// TestRecoverTransitiveGroup checks that the group rule applies through
// transitive entanglement: 1~2 and 2~3 form one group.
func TestRecoverTransitiveGroup(t *testing.T) {
	l, path := tmpLog(t)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(l.Append(CreateTable("User", usersSchema())))
	for tx := TxID(1); tx <= 3; tx++ {
		must(l.Append(Begin(tx)))
	}
	must(l.Append(Entangle(100, []TxID{1, 2})))
	must(l.Append(Entangle(101, []TxID{2, 3})))
	must(l.Append(Insert(1, "User", 0, types.Tuple{types.Int(1), types.Str("A")})))
	must(l.Append(Insert(2, "User", 1, types.Tuple{types.Int(2), types.Str("B")})))
	must(l.Append(Insert(3, "User", 2, types.Tuple{types.Int(3), types.Str("C")})))
	must(l.Append(Commit(1, 0)))
	must(l.Append(Commit(2, 0)))
	// tx3 never commits -> all three roll back.
	cat := storage.NewCatalog()
	if _, err := RecoverAll(path, cat); err != nil {
		t.Fatal(err)
	}
	tbl, _ := cat.Get("User")
	if tbl.Len() != 0 {
		t.Fatalf("transitive group not rolled back: %d rows", tbl.Len())
	}
}

func TestRecoverGroupCommitAtomic(t *testing.T) {
	l, path := tmpLog(t)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(l.Append(CreateTable("User", usersSchema())))
	must(l.Append(Begin(1)))
	must(l.Append(Begin(2)))
	must(l.Append(Entangle(100, []TxID{1, 2})))
	must(l.Append(Insert(1, "User", 0, types.Tuple{types.Int(1), types.Str("SFO")})))
	must(l.Append(Insert(2, "User", 1, types.Tuple{types.Int(2), types.Str("NYC")})))
	must(l.Append(GroupCommit([]TxID{1, 2}, 0)))
	cat := storage.NewCatalog()
	stats, err := RecoverAll(path, cat)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := cat.Get("User")
	if tbl.Len() != 2 {
		t.Fatalf("group commit rows = %d, want 2", tbl.Len())
	}
	if stats.GroupsRecovered != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

// TestRecoverRejectsRowIDPastCeiling: a CRC-valid insert record whose row
// id lies just past storage.MaxRowID fails recovery instead of sizing the
// table's row directory by it.
func TestRecoverRejectsRowIDPastCeiling(t *testing.T) {
	l, path := tmpLog(t)
	row := types.Tuple{types.Int(1), types.Str("SFO")}
	if err := l.AppendBatch([]*Record{
		CreateTable("User", usersSchema()),
		Insert(1, "User", storage.MaxRowID+1, row),
		Commit(1, 1),
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverAll(path, storage.NewCatalog()); err == nil {
		t.Fatalf("recovered a row at id %d", storage.MaxRowID+1)
	}
}

func TestCheckpointAndRecoverAll(t *testing.T) {
	l, path := tmpLog(t)
	cat := storage.NewCatalog()
	tbl, _ := cat.Create("User", usersSchema())
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(l.Append(CreateTable("User", usersSchema())))
	must(l.Append(Begin(1)))
	id, _ := load(tbl, types.Tuple{types.Int(1), types.Str("SFO")})
	must(l.Append(Insert(1, "User", id, types.Tuple{types.Int(1), types.Str("SFO")})))
	must(l.Append(Commit(1, 0)))

	// Checkpoint: snapshot current state, truncate log.
	must(Checkpoint(l, cat, 7))
	if recs, err := ReadAll(path); err != nil || len(recs) != 1 || recs[0].Type != RecSegment {
		t.Errorf("live segment after checkpoint: %v %v, want only its header", recs, err)
	}

	// Post-checkpoint committed work goes to the (now empty) log.
	must(l.Append(Begin(2)))
	id2, _ := load(tbl, types.Tuple{types.Int(2), types.Str("NYC")})
	must(l.Append(Insert(2, "User", id2, types.Tuple{types.Int(2), types.Str("NYC")})))
	must(l.Append(Commit(2, 0)))

	// Crash: recover into a fresh catalog.
	fresh := storage.NewCatalog()
	stats, err := RecoverAll(path, fresh)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := fresh.Get("User")
	if got.Len() != 2 {
		t.Fatalf("recovered rows = %d, want 2 (stats %+v)", got.Len(), stats)
	}
}

func TestSnapshotMissingIsNotError(t *testing.T) {
	cat := storage.NewCatalog()
	csn, _, ok, err := loadSnapshot(filepath.Join(t.TempDir(), "x.log"), cat)
	if err != nil || ok || csn != 0 {
		t.Fatalf("csn=%d ok=%v err=%v", csn, ok, err)
	}
}

func TestSnapshotCRCDetected(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "wal.log")
	cat := storage.NewCatalog()
	tbl, _ := cat.Create("User", usersSchema())
	load(tbl, types.Tuple{types.Int(1), types.Str("SFO")})
	writeSnapshot(t, logPath, cat, 1)
	data, _ := os.ReadFile(SnapshotPath(logPath))
	data[len(data)-1] ^= 0xFF
	os.WriteFile(SnapshotPath(logPath), data, 0o644)
	if _, _, _, err := loadSnapshot(logPath, storage.NewCatalog()); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

func TestAppendAfterClose(t *testing.T) {
	l, _ := tmpLog(t)
	l.Close()
	if err := l.Append(Begin(1)); err == nil {
		t.Fatal("append after close accepted")
	}
}

func TestSyncModeCommits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(Begin(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Commit(1, 0)); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(path)
	if err != nil || len(recs) != 2 {
		t.Fatalf("recs=%d err=%v", len(recs), err)
	}
}

func TestAppendBatchSingleFlush(t *testing.T) {
	l, path := tmpLog(t)
	defer l.Close()
	batch := []*Record{
		GroupCommit([]TxID{1, 2}, 0),
		GroupCommit([]TxID{3, 4}, 0),
		Commit(5, 0),
	}
	if err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got := l.Flushes(); got != 1 {
		t.Fatalf("Flushes = %d, want 1 for the whole batch", got)
	}
	recs, err := ReadAll(path)
	if err != nil || len(recs) != 3 {
		t.Fatalf("recs=%d err=%v", len(recs), err)
	}
	if recs[0].Type != RecGroupCommit || recs[2].Type != RecCommit {
		t.Fatalf("batch order not preserved: %v %v %v", recs[0].Type, recs[1].Type, recs[2].Type)
	}
}

func TestAppendBatchTornTail(t *testing.T) {
	l, path := tmpLog(t)
	if err := l.AppendBatch([]*Record{
		GroupCommit([]TxID{1, 2}, 0),
		GroupCommit([]TxID{3, 4}, 0),
	}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A crash can tear the batched write at any byte. Every prefix must
	// parse to a whole-record prefix of the batch: 0, 1, or 2 records —
	// never an error, never a partial record.
	for cut := 0; cut <= len(data); cut++ {
		p := filepath.Join(t.TempDir(), "cut.wal")
		if err := os.WriteFile(p, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := ReadAll(p)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(recs) > 2 {
			t.Fatalf("cut %d: %d records from a 2-record batch", cut, len(recs))
		}
		for _, r := range recs {
			if r.Type != RecGroupCommit || len(r.Group) != 2 {
				t.Fatalf("cut %d: partial record surfaced: %+v", cut, r)
			}
		}
	}
}

func TestFailedWriteLatchesLog(t *testing.T) {
	l, _ := tmpLog(t)
	// Force a write error by closing the fd out from under the log, as a
	// disk failure would.
	l.f.Close()
	if err := l.Append(Commit(1, 0)); err == nil {
		t.Fatal("append on failed fd succeeded")
	}
	// The log must now be latched: no further appends, loudly.
	err := l.Append(Commit(2, 0))
	if err == nil || !strings.Contains(err.Error(), "log failed") {
		t.Fatalf("append after failure = %v, want latched log-failed error", err)
	}
}

// TestSnapshotCarriesCSN: the checkpoint CSN written into the snapshot
// header round-trips through loadSnapshot and RecoverAll, including over a
// truncated (empty) log — the crash shape that used to reset the clock.
func TestSnapshotCarriesCSN(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "wal.log")
	cat := storage.NewCatalog()
	tbl, _ := cat.Create("User", usersSchema())
	load(tbl, types.Tuple{types.Int(1), types.Str("SFO")})
	const csn = 42
	writeSnapshot(t, logPath, cat, csn)
	fresh := storage.NewCatalog()
	got, _, ok, err := loadSnapshot(logPath, fresh)
	if err != nil || !ok || got != csn {
		t.Fatalf("loadSnapshot csn=%d ok=%v err=%v, want csn %d", got, ok, err, uint64(csn))
	}
	ftbl, _ := fresh.Get("User")
	if ftbl.Len() != 1 {
		t.Fatalf("restored %d rows, want 1", ftbl.Len())
	}
	// Restored rows are stamped at the snapshot CSN.
	if last := ftbl.ColsCSN(nil); last != csn {
		t.Fatalf("restored ColsCSN(nil) = %d, want %d", last, csn)
	}

	// RecoverAll over a snapshot + empty log seeds MaxCSN from the header.
	fresh2 := storage.NewCatalog()
	stats, err := RecoverAll(logPath, fresh2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxCSN != csn || stats.SnapshotCSN != csn {
		t.Fatalf("RecoverAll MaxCSN=%d SnapshotCSN=%d, want both %d", stats.MaxCSN, stats.SnapshotCSN, uint64(csn))
	}
	// A log with a newer commit wins over the snapshot header.
	l, err := Open(logPath, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Begin(9)); err != nil {
		t.Fatal(err)
	}
	id, _ := load(tbl, types.Tuple{types.Int(2), types.Str("NYC")})
	if err := l.Append(Insert(9, "User", id, types.Tuple{types.Int(2), types.Str("NYC")})); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Commit(9, csn+5)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	fresh3 := storage.NewCatalog()
	stats, err = RecoverAll(logPath, fresh3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxCSN != csn+5 {
		t.Fatalf("RecoverAll MaxCSN=%d, want %d", stats.MaxCSN, csn+5)
	}
}

// TestSnapshotV1Fallback: a database checkpointed by the pre-CSN version
// (v1 format: no magic, uvarint row counts) must still open — the rows
// load and the missing clock falls back to 0 / the log's MaxCSN.
func TestSnapshotV1Fallback(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "wal.log")
	// Hand-craft a v1 snapshot: uvarint #tables | name | schema tuple |
	// uvarint #rows | (varint id, row tuple)*, CRC-prefixed.
	var buf []byte
	buf = binary.AppendUvarint(buf, 1)
	buf = binary.AppendUvarint(buf, uint64(len("User")))
	buf = append(buf, "User"...)
	buf = types.EncodeTuple(buf, schemaToTuple(usersSchema()))
	buf = binary.AppendUvarint(buf, 1)
	buf = binary.AppendVarint(buf, 3)
	buf = types.EncodeTuple(buf, types.Tuple{types.Int(1), types.Str("SFO")})
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf))
	if err := os.WriteFile(SnapshotPath(logPath), append(crc[:], buf...), 0o644); err != nil {
		t.Fatal(err)
	}
	cat := storage.NewCatalog()
	csn, _, ok, err := loadSnapshot(logPath, cat)
	if err != nil || !ok || csn != 0 {
		t.Fatalf("v1 snapshot: csn=%d ok=%v err=%v", csn, ok, err)
	}
	tbl, err := cat.Get("User")
	if err != nil || tbl.Len() != 1 {
		t.Fatalf("v1 snapshot restored %v rows (err=%v), want 1", tbl, err)
	}
}

// TestSnapshotRestoreBumpsEveryColumn: restored rows count as a commit to
// every column at the snapshot CSN, so column-level staleness checks see
// the restart.
func TestSnapshotRestoreBumpsEveryColumn(t *testing.T) {
	l, path := tmpLog(t)
	cat := storage.NewCatalog()
	tbl, _ := cat.Create("User", usersSchema())
	if _, err := load(tbl, types.Tuple{types.Int(1), types.Str("SFO")}); err != nil {
		t.Fatal(err)
	}
	if err := Checkpoint(l, cat, 7); err != nil {
		t.Fatal(err)
	}
	fresh := storage.NewCatalog()
	if _, _, ok, err := loadSnapshot(path, fresh); err != nil || !ok {
		t.Fatalf("loadSnapshot: ok=%v err=%v", ok, err)
	}
	got, _ := fresh.Get("User")
	for c := range got.Schema().Columns {
		if csn := got.ColsCSN([]int{c}); csn != 7 {
			t.Errorf("column %d: ColsCSN = %d after restore, want 7", c, csn)
		}
	}
}
