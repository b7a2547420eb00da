package wal

import (
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"

	"repro/internal/storage"
	"repro/internal/types"
)

// maxSnapAllocPerByte bounds what checking a snapshot may allocate per
// byte: the most a byte can describe is a decoded value (32 bytes) or a
// schema column with its name-map entry.
const maxSnapAllocPerByte = 128

// snapSeeds returns v3 snapshots of a small catalog (with an index, a
// string row, an empty table), a hand-made v2 one, and a v3 snapshot whose
// table, index, index column and row counts each lie (CRC intact).
func snapSeeds(t testing.TB) (valid, lying [][]byte) {
	cat := storage.NewCatalog()
	users, _ := cat.Create("User", usersSchema())
	users.Insert(types.Tuple{types.Int(1), types.Str("SFO")})
	users.Insert(types.Tuple{types.Int(2), types.Null()})
	if err := users.CreateIndex("byTown", "hometown"); err != nil {
		t.Fatal(err)
	}
	cat.Create("Empty", types.NewSchema(types.Column{Name: "a", Type: types.KindDate}))
	v3 := encodeSnapshot(cat, 9, 2)
	// v2: magic, CSN, then tables without indexes.
	body := append([]byte("ESNP\x02"), 7, 1, 4, 'U', 's', 'e', 'r')
	body = types.EncodeTuple(body, schemaToTuple(usersSchema()))
	body = binary.LittleEndian.AppendUint64(body, 1)
	body = binary.AppendVarint(body, 3)
	body = types.EncodeTuple(body, types.Tuple{types.Int(1), types.Str("SFO")})
	valid = [][]byte{v3, withCRC(append([]byte{0, 0, 0, 0}, body...))}

	// One table "T" (no columns) whose counts lie, field by field.
	lie := func(tables, indexes, cols, rows uint64) []byte {
		b := append([]byte{0, 0, 0, 0}, "ESNP\x03"...)
		b = append(b, 1, 0) // CSN, segment
		b = binary.AppendUvarint(b, tables)
		b = append(b, 1, 'T', 0) // name, empty schema tuple
		b = binary.AppendUvarint(b, indexes)
		b = append(b, 1, 'i')
		b = binary.AppendUvarint(b, cols)
		b = append(b, 1, 'a')
		b = binary.LittleEndian.AppendUint64(b, rows)
		return withCRC(b)
	}
	const huge = 1 << 40
	lying = [][]byte{lie(huge, 1, 1, 0), lie(1, huge, 1, 0), lie(1, 1, huge, 0), lie(1, 1, 1, huge)}
	return valid, lying
}

// withCRC returns a copy of b with its leading CRC set to match the rest.
func withCRC(b []byte) []byte {
	out := append([]byte(nil), b...)
	if len(out) >= 4 {
		binary.LittleEndian.PutUint32(out, crc32.ChecksumIEEE(out[4:]))
	}
	return out
}

// checkAllocs decodes data without a catalog and fails if that allocated
// more than its bytes can describe. The process-wide counter also sees
// other goroutines (the fuzzing engine's), so the least of three decodes
// counts.
func checkAllocs(t testing.TB, data []byte) (err error) {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err = decodeSnapshot(data, nil)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > uint64(maxSnapAllocPerByte*len(data)+4096) {
		t.Fatalf("checking %d snapshot bytes allocated %d bytes", len(data), least)
	}
	return err
}

// TestSnapshotRejectsLyingCounts: a table, index, index column or row
// count past what the remaining bytes can hold is an error, found before
// anything is sized by it; the valid seeds load.
func TestSnapshotRejectsLyingCounts(t *testing.T) {
	valid, lying := snapSeeds(t)
	for i, data := range lying {
		if err := checkAllocs(t, data); err == nil {
			t.Errorf("lying snapshot %d accepted", i)
		}
	}
	for i, data := range valid {
		if err := checkAllocs(t, data); err != nil {
			t.Errorf("valid snapshot %d: %v", i, err)
		}
		if _, _, err := decodeSnapshot(data, storage.NewCatalog()); err != nil {
			t.Errorf("valid snapshot %d does not load: %v", i, err)
		}
	}
}

// FuzzLoadSnapshot holds the snapshot decoder to its contract: arbitrary
// bytes never panic it and a lying count never makes it allocate more than
// the bytes can describe. Each input is checked as it is (the CRC gate)
// and with its CRC made right (the parser behind it). Loading differs from
// checking only in the catalog calls; it is not fuzzed, as a row id alone
// sizes its table's row directory.
func FuzzLoadSnapshot(f *testing.F) {
	valid, lying := snapSeeds(f)
	for _, data := range append(valid, lying...) {
		f.Add(data)
		f.Add(data[:len(data)/2])
		bad := append([]byte(nil), data...)
		bad[len(bad)-1] ^= 0xff
		f.Add(bad)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAllocs(t, data)
		checkAllocs(t, withCRC(data))
	})
}
