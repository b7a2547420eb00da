package sql

import (
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/types"
)

// countingTx wraps a DataTx to observe whether statements scan or probe.
type countingTx struct {
	DataTx
	scans   int
	lookups int
}

func (c *countingTx) ScanIDs(table string) ([]storage.RowID, []types.Tuple, error) {
	c.scans++
	return c.DataTx.ScanIDs(table)
}

func (c *countingTx) LookupIDs(table string, columns []string, key types.Tuple) ([]storage.RowID, []types.Tuple, error) {
	c.lookups++
	return c.DataTx.LookupIDs(table, columns, key)
}

// execCounted runs one statement through a countingTx and returns the
// result plus the observed access pattern.
func execCounted(t *testing.T, e *core.Engine, cat *storage.Catalog, src string) (*Result, *countingTx) {
	t.Helper()
	st, err := ParseOne(src)
	if err != nil {
		t.Fatal(err)
	}
	counter := &countingTx{}
	var res *Result
	o := e.RunDirect(core.Program{Body: func(tx *core.Tx) error {
		counter.DataTx = tx
		var err error
		res, err = NewSession().Exec(counter, cat, st)
		return err
	}})
	if o.Status != core.StatusCommitted {
		t.Fatalf("statement %q: %+v", src, o)
	}
	return res, counter
}

func TestUpdateRoutesThroughIndex(t *testing.T) {
	e, cat := newSQLEngine(t)
	res, counter := execCounted(t, e, cat, "UPDATE Flights SET fdate='2011-06-01' WHERE dest='LA'")
	if res.RowsAffected != 3 {
		t.Fatalf("RowsAffected = %d, want 3", res.RowsAffected)
	}
	if counter.lookups != 1 || counter.scans != 0 {
		t.Errorf("UPDATE on indexed equality: lookups=%d scans=%d, want 1/0", counter.lookups, counter.scans)
	}
	// Non-indexed predicate still scans.
	_, counter = execCounted(t, e, cat, "UPDATE Flights SET dest='SF' WHERE fno=235")
	if counter.lookups != 0 || counter.scans != 1 {
		t.Errorf("UPDATE on unindexed equality: lookups=%d scans=%d, want 0/1", counter.lookups, counter.scans)
	}
}

func TestDeleteRoutesThroughIndex(t *testing.T) {
	e, cat := newSQLEngine(t)
	res, counter := execCounted(t, e, cat, "DELETE FROM Flights WHERE dest='Paris'")
	if res.RowsAffected != 1 {
		t.Fatalf("RowsAffected = %d, want 1", res.RowsAffected)
	}
	if counter.lookups != 1 || counter.scans != 0 {
		t.Errorf("DELETE on indexed equality: lookups=%d scans=%d, want 1/0", counter.lookups, counter.scans)
	}
	if res := query(t, e, cat, "SELECT fno FROM Flights"); len(res.Rows) != 3 {
		t.Errorf("rows after delete = %v", res.Rows)
	}
}

func TestSelectRoutesThroughIndex(t *testing.T) {
	e, cat := newSQLEngine(t)
	res, counter := execCounted(t, e, cat, "SELECT fno FROM Flights WHERE dest='LA' AND fdate='2011-05-03'")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if counter.lookups != 1 || counter.scans != 0 {
		t.Errorf("SELECT on indexed equality: lookups=%d scans=%d, want 1/0", counter.lookups, counter.scans)
	}
	// Joins keep scanning (the probe is single-table only).
	_, counter = execCounted(t, e, cat, "SELECT F.fno FROM Flights F, Airlines A WHERE F.fno = A.fno AND F.dest='LA'")
	if counter.scans == 0 {
		t.Error("join did not scan")
	}
}

func TestIndexRouteHonorsHostVariablesAndAliases(t *testing.T) {
	e, cat := newSQLEngine(t)
	st1, err := ParseOne("SET @d = 'LA'")
	if err != nil {
		t.Fatal(err)
	}
	st2, err := ParseOne("SELECT fno FROM Flights F WHERE F.dest = @d")
	if err != nil {
		t.Fatal(err)
	}
	counter := &countingTx{}
	var res *Result
	o := e.RunDirect(core.Program{Body: func(tx *core.Tx) error {
		counter.DataTx = tx
		s := NewSession()
		if _, err := s.Exec(counter, cat, st1); err != nil {
			return err
		}
		var err error
		res, err = s.Exec(counter, cat, st2)
		return err
	}})
	if o.Status != core.StatusCommitted {
		t.Fatalf("outcome %+v", o)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if counter.lookups != 1 {
		t.Errorf("aliased @var equality did not probe: lookups=%d scans=%d", counter.lookups, counter.scans)
	}
}
