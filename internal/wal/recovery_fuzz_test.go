package wal

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/storage"
)

// Recovering a log may allocate a fixed cost (the read buffer, file names
// and stats, the first row page of each table) plus at most
// maxRecoverAllocPerByte bytes per log byte: a redo record's decoded row,
// its copy in the open batch and the version it becomes, or a failed DDL
// record's error.
const (
	maxRecoverAllocPerByte = 64
	recoverAllocBase       = 256 << 10
)

// recoverAllocs recovers data, written as a log, into a fresh catalog and
// fails if that allocated more than the bound. Recovery cuts a torn tail,
// so each of the three runs, of which the least counts, starts from data.
func recoverAllocs(t *testing.T, data []byte) (err error) {
	path := filepath.Join(t.TempDir(), "fuzz.wal")
	least := ^uint64(0)
	for range 3 {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = RecoverAll(path, storage.NewCatalog())
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > uint64(maxRecoverAllocPerByte*len(data)+recoverAllocBase) {
		t.Fatalf("recovering %d log bytes allocated %d bytes", len(data), least)
	}
	return err
}

// withFrameCRCs returns a copy of data with the CRC of every whole frame
// made right, so that what the CRC gate turns away reaches the decoder.
func withFrameCRCs(data []byte) []byte {
	out := append([]byte(nil), data...)
	for pos := 0; len(out)-pos >= 8; {
		n := int(binary.LittleEndian.Uint32(out[pos:]))
		if n > len(out)-pos-8 {
			break
		}
		binary.LittleEndian.PutUint32(out[pos+4:], crc32.ChecksumIEEE(out[pos+8:pos+8+n]))
		pos += 8 + n
	}
	return out
}

// FuzzRecover holds recovery to its contract over arbitrary log bytes: it
// never panics, and as given it allocates at most a constant per byte (a
// length field is checked against the bytes left before it sizes
// anything). With every frame's CRC made right the bytes reach the record
// decoder and replay too; that run only must not panic, since a row id
// alone sizes its table's row directory (up to storage.MaxRowID).
func FuzzRecover(f *testing.F) {
	seg0, err := os.ReadFile(filepath.Join("testdata", "history.wal.seg0"))
	if err != nil {
		f.Fatal(err)
	}
	live, err := os.ReadFile(filepath.Join("testdata", "history.wal"))
	if err != nil {
		f.Fatal(err)
	}
	lyingTail := append(append([]byte(nil), seg0...), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1)
	lyingHead := append([]byte(nil), seg0...)
	binary.LittleEndian.PutUint32(lyingHead, 0xffffffff)
	for _, data := range [][]byte{seg0, live, lyingTail, lyingHead} {
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(data[:len(data)-3])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		recoverAllocs(t, data)
		path := filepath.Join(t.TempDir(), "crc.wal")
		if err := os.WriteFile(path, withFrameCRCs(data), 0o644); err != nil {
			t.Fatal(err)
		}
		RecoverAll(path, storage.NewCatalog())
	})
}
