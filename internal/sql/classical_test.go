package sql

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
)

// newClassicalEngine builds the fixture the classical-semantics tests run
// against: a duplicated Flights row, NULLs in DATE, VARCHAR and INT
// columns, an airline with two rows for one flight, and an index on
// Flights(dest).
func newClassicalEngine(t *testing.T) (*core.Engine, *storage.Catalog) {
	t.Helper()
	cat := storage.NewCatalog()
	txm := txn.NewManager(cat, lock.New(500*time.Millisecond), nil)
	for _, src := range []string{
		"CREATE TABLE Flights (fno INT, fdate DATE, dest VARCHAR, seats INT)",
		"CREATE TABLE Airlines (fno INT, airline VARCHAR)",
		"CREATE TABLE Pilots (name VARCHAR, airline VARCHAR)",
		"CREATE INDEX flights_dest ON Flights (dest)",
	} {
		st, err := ParseOne(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := ExecDDL(txm, st); err != nil {
			t.Fatal(err)
		}
	}
	e := core.NewEngine(txm, core.Options{RunFrequency: 2})
	t.Cleanup(e.Close)
	for _, src := range []string{
		"INSERT INTO Flights VALUES (122, '2011-05-03', 'LA', 10)",
		"INSERT INTO Flights VALUES (123, '2011-05-04', 'LA', 0)",
		"INSERT INTO Flights VALUES (124, '2011-05-03', 'LA', 5)",
		"INSERT INTO Flights VALUES (235, '2011-05-05', 'Paris', NULL)",
		"INSERT INTO Flights VALUES (235, '2011-05-05', 'Paris', NULL)",
		"INSERT INTO Flights VALUES (300, NULL, NULL, 1)",
		"INSERT INTO Airlines VALUES (122, 'United')",
		"INSERT INTO Airlines VALUES (123, 'United')",
		"INSERT INTO Airlines VALUES (124, 'USAir')",
		"INSERT INTO Airlines VALUES (122, 'Delta')",
		"INSERT INTO Pilots VALUES ('Ann', 'United')",
		"INSERT INTO Pilots VALUES ('Bob', 'USAir')",
		"INSERT INTO Pilots VALUES ('Cy', NULL)",
	} {
		runScript(t, e, cat, src)
	}
	return e, cat
}

// execAll runs a script's statements in one session and one transaction,
// returning the last statement's result.
func execAll(e *core.Engine, cat *storage.Catalog, script string) (*Result, error) {
	stmts, err := Parse(script)
	if err != nil {
		return nil, err
	}
	var res *Result
	o := e.RunDirect(core.Program{Body: func(tx *core.Tx) error {
		s := NewSession()
		for _, st := range stmts {
			var err error
			if res, err = s.Exec(tx, cat, st); err != nil {
				return err
			}
		}
		return nil
	}})
	if o.Status != core.StatusCommitted {
		if o.Err != nil {
			return nil, o.Err
		}
		return nil, fmt.Errorf("script %v", o.Status)
	}
	return res, nil
}

// rowStrings renders rows as sorted strings: a multiset comparison.
func rowStrings(rows []types.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	slices.Sort(out)
	return out
}

// TestClassicalSemantics pins what a classical statement returns: bag
// semantics for joins and duplicates, semi-join semantics for IN
// (SELECT ...), DATE coercion of literals, NULL comparisons that are false,
// and host-variable binding.
func TestClassicalSemantics(t *testing.T) {
	cases := []struct {
		name   string
		script string // statements run in one session; the last is checked
		cols   []string
		rows   []string // sorted; nil with limit set: only the count is checked
		limit  int
		then   string // a SELECT run afterwards, checked against thenRows
		thenRs []string
	}{
		{name: "duplicate rows are kept",
			script: "SELECT fno, dest FROM Flights WHERE fno = 235",
			cols:   []string{"fno", "dest"},
			rows:   []string{"(235, Paris)", "(235, Paris)"}},
		{name: "IN with several matching subquery rows",
			script: "SELECT fno FROM Flights WHERE fno IN (SELECT fno FROM Airlines)",
			cols:   []string{"fno"},
			rows:   []string{"(122)", "(123)", "(124)"}},
		{name: "IN subquery with WHERE",
			script: "SELECT fno FROM Flights WHERE fno IN (SELECT fno FROM Airlines WHERE airline = 'United')",
			cols:   []string{"fno"},
			rows:   []string{"(122)", "(123)"}},
		{name: "DATE literal equality",
			script: "SELECT fno FROM Flights WHERE fdate = '2011-05-03'",
			cols:   []string{"fno"},
			rows:   []string{"(122)", "(124)"}},
		{name: "DATE literal range skips NULL",
			script: "SELECT fno FROM Flights WHERE fdate > '2011-05-03'",
			cols:   []string{"fno"},
			rows:   []string{"(123)", "(235)", "(235)"}},
		{name: "NULL compares false",
			script: "SELECT fno FROM Flights WHERE seats >= 0",
			cols:   []string{"fno"},
			rows:   []string{"(122)", "(123)", "(124)", "(300)"}},
		{name: "equality with NULL literal is false",
			script: "SELECT fno FROM Flights WHERE seats = NULL",
			cols:   []string{"fno"},
			rows:   []string{}},
		{name: "inequality skips NULL",
			script: "SELECT fno FROM Flights WHERE dest <> 'LA'",
			cols:   []string{"fno"},
			rows:   []string{"(235)", "(235)"}},
		{name: "join on a NULL column matches nothing",
			script: "SELECT P.name FROM Pilots P, Pilots Q WHERE P.airline = Q.airline",
			cols:   []string{"name"},
			rows:   []string{"(Ann)", "(Bob)"}},
		{name: "OR",
			script: "SELECT fno FROM Flights WHERE dest = 'Paris' OR seats = 0",
			cols:   []string{"fno"},
			rows:   []string{"(123)", "(235)", "(235)"}},
		{name: "OR under AND",
			script: "SELECT fno FROM Flights WHERE (seats = 10 OR seats = 5) AND fdate = '2011-05-03'",
			cols:   []string{"fno"},
			rows:   []string{"(122)", "(124)"}},
		{name: "LIMIT",
			script: "SELECT fno FROM Flights WHERE dest = 'LA' LIMIT 2",
			cols:   []string{"fno"},
			limit:  2},
		{name: "SELECT *",
			script: "SELECT * FROM Pilots WHERE name = 'Ann'",
			cols:   []string{"name", "airline"},
			rows:   []string{"(Ann, United)"}},
		{name: "aliases",
			script: "SELECT F.fno, A.airline AS carrier FROM Flights F, Airlines A WHERE F.fno = A.fno AND F.dest = 'LA'",
			cols:   []string{"fno", "carrier"},
			rows:   []string{"(122, Delta)", "(122, United)", "(123, United)", "(124, USAir)"}},
		{name: "AS @v binds the first row",
			script: "SELECT dest AS @d FROM Flights WHERE fno = 122; SELECT fno FROM Flights WHERE dest = @d",
			cols:   []string{"fno"},
			rows:   []string{"(122)", "(123)", "(124)"}},
		{name: "bare @v reads the variable",
			script: "SET @x = 7; SELECT @x, fno FROM Flights WHERE fno = 124",
			cols:   []string{"expr", "fno"},
			rows:   []string{"(7, 124)"}},
		{name: "expression-only SELECT",
			script: "SET @x = 7; SELECT @x + 1 AS @y; SELECT @y",
			cols:   []string{"expr"},
			rows:   []string{"(8)"}},
		{name: "arithmetic in WHERE and select list",
			script: "SELECT fno, seats - 1 FROM Flights WHERE dest = 'LA' AND seats + 5 > 10",
			cols:   []string{"fno", "expr"},
			rows:   []string{"(122, 9)"}},
		{name: "a NULL never matches in IN",
			script: "SELECT name FROM Pilots WHERE airline IN (SELECT airline FROM Pilots)",
			cols:   []string{"name"},
			rows:   []string{"(Ann)", "(Bob)"}},
		{name: "arithmetic on NULL is NULL",
			script: "SELECT fno, seats + 1 FROM Flights WHERE seats - 1 < 100 OR fno = 235",
			cols:   []string{"fno", "expr"},
			rows:   []string{"(122, 11)", "(123, 1)", "(124, 6)", "(235, NULL)", "(235, NULL)", "(300, 2)"}},
		{name: "three-table join",
			script: "SELECT F.fno, P.name FROM Flights F, Airlines A, Pilots P WHERE F.fno = A.fno AND A.airline = P.airline",
			cols:   []string{"fno", "name"},
			rows:   []string{"(122, Ann)", "(123, Ann)", "(124, Bob)"}},
		{name: "UPDATE SET seats = seats - 1",
			script: "UPDATE Flights SET seats = seats - 1 WHERE dest = 'LA'",
			then:   "SELECT fno, seats FROM Flights WHERE dest = 'LA'",
			thenRs: []string{"(122, 9)", "(123, -1)", "(124, 4)"}},
		{name: "UPDATE coerces a DATE literal",
			script: "UPDATE Flights SET fdate = '2011-06-01' WHERE fno = 300",
			then:   "SELECT fno FROM Flights WHERE fdate = '2011-06-01'",
			thenRs: []string{"(300)"}},
		{name: "DELETE with OR",
			script: "DELETE FROM Flights WHERE dest = 'Paris' OR seats = 0",
			then:   "SELECT fno FROM Flights",
			thenRs: []string{"(122)", "(124)", "(300)"}},
		{name: "DELETE with IN subquery",
			script: "DELETE FROM Flights WHERE fno IN (SELECT fno FROM Airlines WHERE airline = 'United')",
			then:   "SELECT fno FROM Flights",
			thenRs: []string{"(124)", "(235)", "(235)", "(300)"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, cat := newClassicalEngine(t)
			res, err := execAll(e, cat, tc.script)
			if err != nil {
				t.Fatal(err)
			}
			if tc.then != "" {
				res, err = execAll(e, cat, tc.then)
				if err != nil {
					t.Fatal(err)
				}
				if got := rowStrings(res.Rows); !slices.Equal(got, tc.thenRs) {
					t.Fatalf("after: rows = %v, want %v", got, tc.thenRs)
				}
				return
			}
			if !slices.Equal(res.Columns, tc.cols) {
				t.Errorf("columns = %v, want %v", res.Columns, tc.cols)
			}
			if tc.limit > 0 {
				if len(res.Rows) != tc.limit {
					t.Errorf("rows = %v, want %d", res.Rows, tc.limit)
				}
				return
			}
			if got := rowStrings(res.Rows); !slices.Equal(got, tc.rows) {
				t.Errorf("rows = %v, want %v", got, tc.rows)
			}
		})
	}
}

// TestClassicalRowsAffected pins the affected-row counts of UPDATE and
// DELETE, duplicates included.
func TestClassicalRowsAffected(t *testing.T) {
	for src, want := range map[string]int{
		"UPDATE Flights SET seats = seats - 1 WHERE dest = 'LA'":          3,
		"UPDATE Flights SET dest = 'Rome' WHERE fno = 235":                2,
		"DELETE FROM Flights WHERE dest = 'Paris' OR seats = 0":           3,
		"DELETE FROM Flights WHERE fno IN (SELECT fno FROM Airlines)":     3,
		"UPDATE Flights SET seats = 1 WHERE fdate = '2011-05-03'":         2,
		"DELETE FROM Flights WHERE seats = NULL":                          0,
		"UPDATE Flights SET seats = 2 WHERE fno = 122 AND dest = 'Paris'": 0,
	} {
		e, cat := newClassicalEngine(t)
		res, err := execAll(e, cat, src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if res.RowsAffected != want {
			t.Errorf("%s: RowsAffected = %d, want %d", src, res.RowsAffected, want)
		}
	}
}

// TestUnknownNamesAreErrors checks that an unknown column or table in a
// select list, WHERE or SET fails the statement whatever the table holds:
// FlightBookings is empty, and no Flights row has fno 99999.
func TestUnknownNamesAreErrors(t *testing.T) {
	e, cat := newSQLEngine(t)
	for _, src := range []string{
		"SELECT nope FROM Flights WHERE fno = 99999",
		"SELECT nope FROM FlightBookings",
		"SELECT name FROM FlightBookings WHERE nope = 1",
		"SELECT fno FROM Flights WHERE X.fno = 1",
		"SELECT fno FROM Flights F WHERE F.nope = 1 AND fno = 99999",
		"SELECT fno FROM Nope",
		"SELECT fno FROM Flights WHERE fno IN (SELECT nope FROM Airlines)",
		"SELECT name FROM FlightBookings WHERE fno IN (SELECT fno FROM Airlines WHERE nope = 1)",
		"UPDATE Flights SET nope = 1 WHERE fno = 99999",
		"UPDATE FlightBookings SET nope = 1",
		"UPDATE FlightBookings SET fno = nope + 1",
		"DELETE FROM Flights WHERE nope = 1 AND fno = 99999",
		"DELETE FROM FlightBookings WHERE nope = 1",
	} {
		if _, err := execAll(e, cat, src); err == nil {
			t.Errorf("%s: committed", src)
		}
	}
}

// TestUpdateRejectsDuplicateSet checks that SET names a column once.
func TestUpdateRejectsDuplicateSet(t *testing.T) {
	for _, src := range []string{
		"UPDATE Flights SET dest = 'A', dest = 'B'",
		"UPDATE Flights SET dest = 'A', fno = 1, DEST = 'B' WHERE fno = 122",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: parsed", src)
		}
	}
	st, err := ParseOne("UPDATE Flights SET fno = 1, dest = 'A'")
	if err != nil {
		t.Fatal(err)
	}
	if set := st.(*UpdateStmt).Set; len(set) != 2 || set[0].Col != "fno" || set[1].Col != "dest" {
		t.Errorf("SET = %+v, want fno then dest", set)
	}
}

// newJoinEngine builds n Users and n Friends rows, with indexes on
// Friends(uid1) and Users(uid): user 5 has n/100 friends, the first with
// hometown T5.
func newJoinEngine(tb testing.TB, n int) (*core.Engine, *storage.Catalog) {
	tb.Helper()
	cat := storage.NewCatalog()
	txm := txn.NewManager(cat, lock.New(500*time.Millisecond), nil)
	for _, src := range []string{
		"CREATE TABLE Friends (uid1 INT, uid2 INT)",
		"CREATE TABLE Users (uid INT, hometown VARCHAR)",
		"CREATE INDEX friends_uid1 ON Friends (uid1)",
		"CREATE INDEX users_uid ON Users (uid)",
	} {
		st, err := ParseOne(src)
		if err != nil {
			tb.Fatal(err)
		}
		if err := ExecDDL(txm, st); err != nil {
			tb.Fatal(err)
		}
	}
	e := core.NewEngine(txm, core.Options{RunFrequency: 2})
	tb.Cleanup(e.Close)
	var ins []string
	for i := 0; i < n; i++ {
		ins = append(ins,
			fmt.Sprintf("INSERT INTO Users VALUES (%d, 'T%d')", i, i%10),
			fmt.Sprintf("INSERT INTO Friends VALUES (%d, %d)", i%100, (i*7+i/100)%n))
	}
	if _, err := execAll(e, cat, strings.Join(ins, ";")); err != nil {
		tb.Fatal(err)
	}
	return e, cat
}

// classicalJoin is a friend-of-user join with both join keys indexed.
const classicalJoin = "SELECT u.uid FROM Friends f, Users u WHERE f.uid1 = 5 AND u.uid = f.uid2 AND u.hometown = 'T5'"

// fetchCounter wraps a DataTx and counts the rows its reads return.
type fetchCounter struct {
	DataTx
	rows int
}

func (c *fetchCounter) ScanIDs(table string) ([]storage.RowID, []types.Tuple, error) {
	ids, rows, err := c.DataTx.ScanIDs(table)
	c.rows += len(rows)
	return ids, rows, err
}

func (c *fetchCounter) LookupIDs(table string, columns []string, key types.Tuple) ([]storage.RowID, []types.Tuple, error) {
	ids, rows, err := c.DataTx.LookupIDs(table, columns, key)
	c.rows += len(rows)
	return ids, rows, err
}

// TestClassicalJoinFetchesOnlyMatches gates the join's access paths: at
// 1,000 rows per table the outer level probes Friends(uid1) and the inner
// one probes Users(uid) once per friend, so the statement fetches the ten
// friends and their ten users, not both tables. The rows match the
// reference executor's.
func TestClassicalJoinFetchesOnlyMatches(t *testing.T) {
	e, cat := newJoinEngine(t, 1000)
	st, err := ParseOne(classicalJoin)
	if err != nil {
		t.Fatal(err)
	}
	var got, want *Result
	fetched := 0
	o := e.RunDirect(core.Program{Body: func(tx *core.Tx) error {
		c := &fetchCounter{DataTx: tx}
		var err error
		if got, err = NewSession().Exec(c, cat, st); err != nil {
			return err
		}
		fetched = c.rows
		want, err = refSelect(NewSession(), tx, cat, st.(*SelectStmt))
		return err
	}})
	if o.Status != core.StatusCommitted {
		t.Fatalf("join: %+v", o)
	}
	if g, w := rowStrings(got.Rows), rowStrings(want.Rows); !slices.Equal(g, w) || len(g) == 0 {
		t.Fatalf("rows %v, reference %v", g, w)
	}
	t.Logf("the join fetched %d rows", fetched)
	if fetched > 64 {
		t.Errorf("the join fetched %d rows, want at most 64", fetched)
	}
}

// BenchmarkClassicalJoin times classicalJoin, one committed statement per
// iteration, at 100, 300 and 1,000 rows per table.
func BenchmarkClassicalJoin(b *testing.B) {
	for _, n := range []int{100, 300, 1000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			e, cat := newJoinEngine(b, n)
			st, err := ParseOne(classicalJoin)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o := e.RunDirect(core.Program{Body: func(tx *core.Tx) error {
					_, err := NewSession().Exec(tx, cat, st)
					return err
				}})
				if o.Status != core.StatusCommitted {
					b.Fatalf("join: %+v", o)
				}
			}
		})
	}
}
