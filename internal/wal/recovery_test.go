package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/types"
)

// testdata/history.wal and history.wal.seg0 were written by writeHistory
// with the encoder of the version before Record lost its before-image
// field: a log whose first checkpoint crashed after its switch, so its
// first segment is retired and the live segment repeats the undecided
// prepares and the decision after its header.

func acctSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "who", Type: types.KindString},
		types.Column{Name: "n", Type: types.KindInt},
	)
}

func acct(id int64, who string, n int64) types.Tuple {
	return types.Tuple{types.Int(id), types.Str(who), types.Int(n)}
}

// writeHistory writes the testdata history to a log at path: every record
// kind, a group commit, prepares settled by commit and by abort (one of
// them across the checkpoint), two left in doubt (one holding the highest
// row id), and both decisions.
func writeHistory(t *testing.T, path string) {
	t.Helper()
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, b := range [][]*Record{
		{CreateTable("Acct", acctSchema()), CreateIndex("Acct", "acct_id", []string{"id"})},
		{Insert(1, "Acct", 0, acct(0, "ann", 10)), Insert(1, "Acct", 1, acct(1, "bob", 20)), Insert(1, "Acct", 2, acct(2, "cy", 30)), Commit(1, 1)},
		{Insert(2, "Acct", 3, acct(3, "dee", 40)), Prepare(2, 50)},
		{Update(3, "Acct", 0, acct(0, "ann", 11)), Delete(3, "Acct", 1), Commit(3, 2)},
		{Insert(4, "Acct", 4, acct(4, "eve", 50)), Prepare(4, 51)},
		{Insert(5, "Acct", 5, acct(5, "fay", 60)), Insert(6, "Acct", 6, acct(6, "gus", 70)), GroupCommit([]TxID{5, 6}, 3)},
		{DecideCommit(60)},
		{Update(7, "Acct", 2, acct(2, "cy", 31)), Prepare(7, 52)},
		{Abort(7)},
	} {
		if err := l.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Switch(); err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]*Record{
		{Commit(4, 4)},
		{DecideAbort(61)},
		{Update(8, "Acct", 0, acct(0, "ann", 12)), Insert(8, "Acct", 8, acct(8, "ida", 90)), Prepare(8, 53)},
		{Insert(9, "Acct", 7, acct(7, "hal", 80)), Update(9, "Acct", 5, acct(5, "fay", 61)), Commit(9, 5)},
	} {
		if err := l.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
}

var historyFiles = []string{"history.wal", "history.wal.seg0"}

// TestEncoderWritesHistoryBytes: today's encoder writes the testdata
// history byte for byte.
func TestEncoderWritesHistoryBytes(t *testing.T) {
	dir := t.TempDir()
	writeHistory(t, filepath.Join(dir, "history.wal"))
	for _, name := range historyFiles {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: encoder wrote %d bytes differing from the %d committed", name, len(got), len(want))
		}
	}
}

// copyHistory copies the testdata history into a fresh directory and
// returns its log path.
func copyHistory(t testing.TB) string {
	dir := t.TempDir()
	for _, name := range historyFiles {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return filepath.Join(dir, "history.wal")
}

// TestRecoverCommittedHistory reopens the testdata history: every row,
// the clock, the tx-id seed, the in-doubt set with its records and the
// decisions are as the log left them, and the in-doubt insert's row id is
// reserved.
func TestRecoverCommittedHistory(t *testing.T) {
	cat := storage.NewCatalog()
	st, err := RecoverAll(copyHistory(t), cat)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := cat.Get("Acct")
	if err != nil {
		t.Fatal(err)
	}
	want := map[storage.RowID]types.Tuple{
		0: acct(0, "ann", 11), 2: acct(2, "cy", 30), 4: acct(4, "eve", 50),
		5: acct(5, "fay", 61), 6: acct(6, "gus", 70), 7: acct(7, "hal", 80),
	}
	got := map[storage.RowID]types.Tuple{}
	tbl.ScanTx(0, func(id storage.RowID, row types.Tuple) bool {
		got[id] = row.Clone()
		return true
	})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("rows %v, want %v", got, want)
	}
	if ixs := tbl.Indexes(); len(ixs) != 1 || ixs[0].Name != "acct_id" {
		t.Errorf("indexes %v, want acct_id", ixs)
	}
	if st.MaxCSN != 5 || st.MaxTx != 9 {
		t.Errorf("MaxCSN %d, MaxTx %d; want 5 and 9", st.MaxCSN, st.MaxTx)
	}
	if fmt.Sprint(st.InDoubt) != "map[2:50 8:53]" {
		t.Errorf("in doubt %v, want tx 2 in group 50 and tx 8 in group 53", st.InDoubt)
	}
	if r := st.InDoubtRecords[2]; len(r) != 1 || r[0].Type != RecInsert || r[0].RowID != 3 || !r[0].Row.Equal(acct(3, "dee", 40)) {
		t.Errorf("tx 2's in-doubt records %v", r)
	}
	if r := st.InDoubtRecords[8]; len(r) != 2 || r[0].Type != RecUpdate || r[0].RowID != 0 || !r[0].Row.Equal(acct(0, "ann", 12)) ||
		r[1].Type != RecInsert || r[1].RowID != 8 || !r[1].Row.Equal(acct(8, "ida", 90)) {
		t.Errorf("tx 8's in-doubt records %v", r)
	}
	if fmt.Sprint(st.Decisions) != "map[60:true 61:false]" {
		t.Errorf("decisions %v, want 60 committed and 61 aborted", st.Decisions)
	}
	if id, err := tbl.InsertTx(10, acct(9, "jo", 100)); err != nil || id != 9 {
		t.Errorf("a fresh insert took row id %d (%v), want 9: past the in-doubt insert's 8", id, err)
	}
}

// appendFrames appends one frame per record to buf.
func appendFrames(buf []byte, rs ...*Record) []byte {
	for _, r := range rs {
		buf = frameInto(buf, r)
	}
	return buf
}

// TestLegacyRecordsRejected: a log holding a BEGIN, an ENTANGLE or an
// UPDATE with a before-image, as logs before one-append commits held, does
// not open, and the error names the record; so does a record with bytes
// past its CSN or none.
func TestLegacyRecordsRejected(t *testing.T) {
	withOld := frameInto(nil, Update(1, "User", 0, types.Tuple{types.Int(1), types.Str("LAX")}))
	payload := withOld[8:]
	at := len(payload) - 3 // the before-image slot, before group count and CSN
	payload = append(payload[:at:at], append(types.EncodeTuple(nil, types.Tuple{types.Int(1), types.Str("SFO")}), payload[at+1:]...)...)
	frame := func(payload []byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
		return append(b, payload...)
	}
	commit := frameInto(nil, Commit(1, 1))[8:]
	for _, c := range []struct {
		name  string
		frame []byte
		want  string
	}{
		{"begin", frameInto(nil, &Record{Type: recBegin, Tx: 1}), "BEGIN"},
		{"entangle", frameInto(nil, &Record{Type: recEntangle, Tx: 7, Group: []TxID{1, 2}}), "ENTANGLE"},
		{"before-image", frame(payload), "UPDATE record: a before-image"},
		{"trailing bytes", frame(append(commit[:len(commit):len(commit)], 0)), "COMMIT malformed trailing bytes"},
		{"no CSN", frame(commit[:len(commit)-1]), "COMMIT malformed csn"},
	} {
		path := filepath.Join(t.TempDir(), "wal.log")
		data := appendFrames(nil, CreateTable("User", usersSchema()))
		data = appendFrames(append(data, c.frame...), Commit(1, 1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := RecoverAll(path, storage.NewCatalog()); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: recovery error %v, want one naming %q", c.name, err, c.want)
		}
	}
}

// TestLyingTailLengthIsTorn: a tail frame whose length field reads
// 0xFFFFFFFF is a torn tail, found before it sizes a buffer.
func TestLyingTailLengthIsTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	data := appendFrames(nil, CreateTable("User", usersSchema()),
		Insert(1, "User", 0, types.Tuple{types.Int(1), types.Str("SFO")}), Commit(1, 1))
	data = append(data, 0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cat := storage.NewCatalog()
		st, err := RecoverAll(path, cat)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if tbl, _ := cat.Get("User"); tbl.Len() != 1 || st.MaxCSN != 1 {
			t.Fatalf("recovered %d rows at MaxCSN %d, want the 1 committed row at 1", tbl.Len(), st.MaxCSN)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 1<<20 {
		t.Fatalf("recovery allocated %d bytes past a lying tail length", least)
	}
}

// TestTornTailCutBeforeAppend: recovery cuts a torn tail off the live
// segment, so a commit appended after the restart is not buried behind it
// and the next restart recovers it.
func TestTornTailCutBeforeAppend(t *testing.T) {
	l, path := tmpLog(t)
	if err := l.AppendBatch([]*Record{CreateTable("User", usersSchema()),
		Insert(1, "User", 0, types.Tuple{types.Int(1), types.Str("SFO")}), Commit(1, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch([]*Record{Insert(2, "User", 1, types.Tuple{types.Int(2), types.Str("NYC")}), Commit(2, 2)}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err := RecoverAll(path, storage.NewCatalog()); err != nil || st.MaxCSN != 1 {
		t.Fatalf("first restart: MaxCSN %v, %v; want 1", st, err)
	}
	l, err = Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch([]*Record{Insert(3, "User", 1, types.Tuple{types.Int(3), types.Str("LAX")}), Commit(3, 2)}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	cat := storage.NewCatalog()
	if st, err := RecoverAll(path, cat); err != nil || st.MaxCSN != 2 {
		t.Fatalf("second restart: %v, %v; want MaxCSN 2", st, err)
	}
	tbl, _ := cat.Get("User")
	if row, ok := tbl.GetTx(0, 1); !ok || row[1].Str64() != "LAX" {
		t.Fatalf("row 1 = %v, want the commit made after the first restart", row)
	}
}

// writeUpdateLog writes a log of 100 indexed rows of (id, who, n), then n
// autocommit updates round the rows, each in one append with its commit,
// as the engine logs them. It returns the log's size.
func writeUpdateLog(t *testing.T, path string, n int) int {
	t.Helper()
	buf := appendFrames(nil, CreateTable("Acct", acctSchema()), CreateIndex("Acct", "acct_id", []string{"id"}))
	for i := range 100 {
		buf = appendFrames(buf, Insert(TxID(i+1), "Acct", storage.RowID(i), acct(int64(i), "who", 0)), Commit(TxID(i+1), uint64(i+1)))
	}
	for i := range n {
		tx := TxID(101 + i)
		buf = appendFrames(buf, Update(tx, "Acct", storage.RowID(i%100), acct(int64(i%100), "who", int64(i))), Commit(tx, uint64(tx)))
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return len(buf)
}

// reopenCost recovers the log at path three times and returns the least
// bytes allocated and the least heap kept by the recovered catalog.
func reopenCost(t *testing.T, path string) (alloc, heap uint64) {
	t.Helper()
	alloc, heap = ^uint64(0), ^uint64(0)
	for range 3 {
		var before, after, kept runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		cat := storage.NewCatalog()
		if _, err := RecoverAll(path, cat); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		runtime.GC()
		runtime.ReadMemStats(&kept)
		runtime.KeepAlive(cat)
		alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		heap = min(heap, kept.HeapAlloc-min(kept.HeapAlloc, before.HeapAlloc))
	}
	return alloc, heap
}

// TestReopenCostOfUpdateLog: reopening a log of 100,000 updates to 100
// rows allocates at most 8 bytes per log byte, and keeps no more heap than
// a log of 10,000 updates does (within 1.2x, plus 128 KiB): recovery holds
// the open batches and the in-doubt set, not the log, and prunes the
// versions no snapshot can see once replay ends.
func TestReopenCostOfUpdateLog(t *testing.T) {
	dir := t.TempDir()
	small, large := filepath.Join(dir, "10k.wal"), filepath.Join(dir, "100k.wal")
	writeUpdateLog(t, small, 10_000)
	size := writeUpdateLog(t, large, 100_000)
	_, smallHeap := reopenCost(t, small)
	alloc, heap := reopenCost(t, large)
	t.Logf("100k-update log %d B: reopen allocates %d B (%.1fx), keeps %d B; 10k-update log keeps %d B",
		size, alloc, float64(alloc)/float64(size), heap, smallHeap)
	if alloc > 8*uint64(size) {
		t.Errorf("reopen allocated %d bytes for a %d-byte log: over 8x", alloc, size)
	}
	if float64(heap) > 1.2*float64(smallHeap)+128<<10 {
		t.Errorf("reopen kept %d bytes of heap for 100,000 updates, %d for 10,000", heap, smallHeap)
	}
}
