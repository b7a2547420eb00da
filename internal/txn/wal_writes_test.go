package txn

import (
	"slices"
	"testing"

	"repro/internal/types"
	"repro/internal/wal"
)

// readAll returns the records of the log at path, each copied out of the
// scan.
func readAll(path string) ([]*wal.Record, error) {
	var out []*wal.Record
	_, err := wal.Scan(path, func(r *wal.Record) error {
		c := *r
		c.Row, c.Group = nil, slices.Clone(r.Group)
		if len(r.Row) > 0 {
			c.Row = r.Row.Clone()
		}
		out = append(out, &c)
		return nil
	})
	return out, err
}

// flushesOf returns the physical WAL writes fn makes.
func flushesOf(m *Manager, fn func()) int64 {
	before := m.log.Flushes()
	fn()
	return m.log.Flushes() - before
}

// TestOneLogWritePerTransaction: a transaction reaches the log once, in
// the append that commits or prepares it, and one with nothing to redo
// never reaches it.
func TestOneLogWritePerTransaction(t *testing.T) {
	m, _ := newTestManager(t, true)
	if _, err := m.CreateTable("User", userSchema()); err != nil {
		t.Fatal(err)
	}
	seed, _ := m.Begin(Serializable)
	a, _ := seed.Insert("User", types.Tuple{types.Int(1), types.Str("SFO")})
	b, _ := seed.Insert("User", types.Tuple{types.Int(2), types.Str("NYC")})
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		want int64
		life func()
	}{
		{"read-only commit", 0, func() {
			tx, _ := m.Begin(Serializable)
			_, err := tx.Scan("User")
			must(err)
			must(tx.Commit())
		}},
		{"commit of 3 writes", 1, func() {
			tx, _ := m.Begin(Serializable)
			_, err := tx.Insert("User", types.Tuple{types.Int(3), types.Str("LAX")})
			must(err)
			must(tx.Update("User", a, types.Tuple{types.Int(1), types.Str("OAK")}))
			must(tx.Delete("User", b))
			must(tx.Commit())
		}},
		{"unprepared abort", 0, func() {
			tx, _ := m.Begin(Serializable)
			_, err := tx.Insert("User", types.Tuple{types.Int(4), types.Str("BOS")})
			must(err)
			must(tx.Abort())
		}},
		{"read-only prepare, commit decision", 0, func() {
			tx, _ := m.Begin(Serializable)
			must(m.Prepare(tx, 7))
			must(tx.Commit())
		}},
	}
	for _, c := range cases {
		if got := flushesOf(m, c.life); got != c.want {
			t.Errorf("%s: %d WAL writes, want %d", c.name, got, c.want)
		}
	}
	for _, commit := range []bool{true, false} {
		tx, _ := m.Begin(Serializable)
		if _, err := tx.Insert("User", types.Tuple{types.Int(5), types.Str("SEA")}); err != nil {
			t.Fatal(err)
		}
		if got := flushesOf(m, func() { must(m.Prepare(tx, 8)) }); got != 1 {
			t.Errorf("prepare: %d WAL writes, want 1", got)
		}
		decide := tx.Abort
		if commit {
			decide = tx.Commit
		}
		if got := flushesOf(m, func() { must(decide()) }); got != 1 {
			t.Errorf("decision commit=%v: %d WAL writes, want 1", commit, got)
		}
	}
}

// TestRedoCarriesNoBeforeImages: recovery reads only new images, so an
// Update record carries no old row and a Delete record no row at all.
func TestRedoCarriesNoBeforeImages(t *testing.T) {
	m, path := newTestManager(t, true)
	m.CreateTable("User", userSchema())
	seed, _ := m.Begin(Serializable)
	a, _ := seed.Insert("User", types.Tuple{types.Int(1), types.Str("SFO")})
	b, _ := seed.Insert("User", types.Tuple{types.Int(2), types.Str("NYC")})
	seed.Commit()
	tx, _ := m.Begin(Serializable)
	if err := tx.Update("User", a, types.Tuple{types.Int(1), types.Str("OAK")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("User", b); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	recs, err := readAll(path)
	if err != nil {
		t.Fatal(err)
	}
	recs = recs[len(recs)-3:]
	if recs[0].Type != wal.RecUpdate || recs[1].Type != wal.RecDelete || recs[2].Type != wal.RecCommit {
		t.Fatalf("last records = %v %v %v, want UPDATE DELETE COMMIT", recs[0].Type, recs[1].Type, recs[2].Type)
	}
	if !recs[0].Row.Equal(types.Tuple{types.Int(1), types.Str("OAK")}) {
		t.Errorf("update record: row %v; want the new row", recs[0].Row)
	}
	if recs[1].Row != nil {
		t.Errorf("delete record carries an image: row %v", recs[1].Row)
	}
}
