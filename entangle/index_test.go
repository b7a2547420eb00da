package entangle

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/eq"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/wal"
)

// planLog is an eq.CursorReader over a catalog that records every index
// question the planner asks, with its answer, and every access path the
// pipeline opens: two equal logs mean the same plan.
type planLog struct {
	cat   *storage.Catalog
	lines []string
}

var readAll = storage.Snapshot{CSN: math.MaxUint64 - 1}

func (p *planLog) table(name string) *storage.Table {
	tbl, err := p.cat.Get(name)
	if err != nil {
		panic(err)
	}
	return tbl
}

func (p *planLog) ScanCursor(table string) (eq.RowCursor, error) {
	p.lines = append(p.lines, "scan "+table)
	return p.table(table).ScanCursorAsOf(readAll), nil
}

func (p *planLog) CanProbe(table string, cols []int) bool {
	ok := p.table(table).HasIndexForCols(cols)
	p.lines = append(p.lines, fmt.Sprint("index ", table, cols, " ", ok))
	return ok
}

func (p *planLog) ProbeCursor(table string, cols []int, vals []types.Value) (eq.RowCursor, error) {
	p.lines = append(p.lines, fmt.Sprint("probe ", table, cols))
	return p.table(table).ProbeCursor(readAll, cols, vals)
}

// TestUndeclaredIndexNeverPersisted: the Flights(dest) index a grounding
// probe builds stays undeclared. A checkpoint's snapshot does not carry
// it, Indexes lists only the declared index, and CanProbe and the plan
// of a query that would change order if the index counted read the same
// before and after a restart.
func TestUndeclaredIndexNeverPersisted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	db, err := Open(Options{Path: path, RunFrequency: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ExecDDL(`
		CREATE TABLE Flights (fno INT, fdate DATE, dest VARCHAR);
		CREATE TABLE Bookings (name VARCHAR, fno INT, fdate DATE);
		CREATE INDEX bookings_name ON Bookings (name);
	`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO Flights VALUES (122, '2011-05-03', 'LA')"); err != nil {
		t.Fatal(err)
	}
	h1, _ := db.SubmitScript(pairScript("Mickey", "Minnie"))
	h2, _ := db.SubmitScript(pairScript("Minnie", "Mickey"))
	if o1, o2 := h1.Wait(), h2.Wait(); o1.Status != StatusCommitted || o2.Status != StatusCommitted {
		t.Fatalf("pair: %+v, %+v", o1, o2)
	}
	flights, err := db.Catalog().Get("Flights")
	if err != nil {
		t.Fatal(err)
	}
	scans := flights.ScanCount()
	if _, err := flights.ProbeCursor(readAll, []int{2}, []types.Value{types.Str("LA")}); err != nil {
		t.Fatal(err)
	}
	if flights.ScanCount() != scans {
		t.Fatal("grounding left no Flights(dest) index behind")
	}

	// Both atoms have one bound column; only a declared index on one of
	// them breaks the tie, so a Flights(dest) index that counted would put
	// Flights first.
	q := &EQ{
		Head: []eq.Atom{Atom("R", Var("f"))},
		Post: []eq.Atom{Atom("R", Var("f"))},
		Body: []eq.Atom{
			Atom("Flights", Var("f"), Var("d"), Var("dest")),
			Atom("Bookings", Var("n"), Var("f"), Var("d")),
		},
		Where: []eq.Constraint{
			{Left: Var("dest"), Op: eq.OpEq, Right: Const(Str("LA"))},
			{Left: Var("n"), Op: eq.OpEq, Right: Const(Str("Mickey"))},
		},
		Choose: 1,
	}
	plan := func(cat *storage.Catalog) []string {
		t.Helper()
		p := &planLog{cat: cat}
		if g, err := eq.Ground(q, p, 0); err != nil || len(g) != 1 {
			t.Fatalf("ground: %d groundings, %v", len(g), err)
		}
		return p.lines
	}
	indexes := func(cat *storage.Catalog) map[string][]storage.IndexInfo {
		t.Helper()
		out := make(map[string][]storage.IndexInfo)
		for _, name := range cat.Names() {
			tbl, err := cat.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			out[name] = tbl.Indexes()
		}
		return out
	}
	declared := map[string][]storage.IndexInfo{
		"Bookings": {{Name: "bookings_name", Columns: []string{"name"}}},
		"Flights":  {},
	}
	before := plan(db.Catalog())
	if got := indexes(db.Catalog()); !reflect.DeepEqual(got, declared) {
		t.Errorf("Indexes() before restart = %v, want %v", got, declared)
	}

	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	recs, err := wal.ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	var logged []string
	for _, r := range recs {
		if r.Type == wal.RecCreateIndex {
			logged = append(logged, r.Table+"."+r.Row[0].Str64())
		}
	}
	// The snapshot carries the index definitions; the restart below must
	// find exactly the declared ones.
	if len(logged) != 0 {
		t.Errorf("index records after the checkpoint = %v, want none", logged)
	}
	db.Close()

	db2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := indexes(db2.Catalog()); !reflect.DeepEqual(got, declared) {
		t.Errorf("Indexes() after restart = %v, want %v", got, declared)
	}
	if after := plan(db2.Catalog()); !reflect.DeepEqual(after, before) {
		t.Errorf("plan after restart:\n%v\nbefore:\n%v", after, before)
	}
	var opened []string
	for _, line := range before {
		if strings.HasPrefix(line, "probe ") {
			opened = append(opened, line)
		}
	}
	if want := []string{"probe Bookings[0]", "probe Flights[0 1 2]"}; !reflect.DeepEqual(opened, want) {
		t.Errorf("access paths opened %q, want %q: Bookings first, on its declared index", opened, want)
	}
}
