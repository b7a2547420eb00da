package entangle

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// walBytes returns the size of db's log file.
func walBytes(t *testing.T, db *DB) int64 {
	t.Helper()
	fi, err := os.Stat(db.path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestReadOnlyStatementWritesNoWAL: a point SELECT has nothing to redo, so
// neither DB.Exec nor an interactive session's autocommit statement
// appends to the log, while a point UPDATE is one append.
func TestReadOnlyStatementWritesNoWAL(t *testing.T) {
	db := openTest(t, Options{Path: filepath.Join(t.TempDir(), "ro.wal")})
	s := db.Interactive()
	defer s.Close()
	const point = "SELECT dest FROM Flights WHERE fno = 122"
	for name, exec := range map[string]func(string) (*Result, error){
		"DB.Exec": db.Exec,
		"session": s.Exec,
	} {
		bytes, flushes := walBytes(t, db), db.log.Flushes()
		res, err := exec(point)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("%s: rows = %v", name, res.Rows)
		}
		if d := walBytes(t, db) - bytes; d != 0 {
			t.Errorf("%s: point SELECT appended %d WAL bytes, want 0", name, d)
		}
		if d := db.log.Flushes() - flushes; d != 0 {
			t.Errorf("%s: point SELECT made %d WAL writes, want 0", name, d)
		}
		flushes = db.log.Flushes()
		if _, err := exec("UPDATE Flights SET dest = 'SF' WHERE fno = 123"); err != nil {
			t.Fatal(err)
		}
		if d := db.log.Flushes() - flushes; d != 1 {
			t.Errorf("%s: point UPDATE made %d WAL writes, want 1", name, d)
		}
	}
}

// TestSessionAutocommitIsADirectRun: a statement an interactive session
// runs outside a BEGIN block takes the same path as DB.Exec, so it counts
// as a commit in the engine's stats.
func TestSessionAutocommitIsADirectRun(t *testing.T) {
	db := openTest(t, Options{})
	s := db.Interactive()
	defer s.Close()
	for name, exec := range map[string]func(string) (*Result, error){
		"DB.Exec": db.Exec,
		"session": s.Exec,
	} {
		before := db.Stats().Commits
		if _, err := exec("INSERT INTO Bookings VALUES ('solo', 122, '2011-05-03')"); err != nil {
			t.Fatal(err)
		}
		if d := db.Stats().Commits - before; d != 1 {
			t.Errorf("%s: INSERT moved Stats().Commits by %d, want 1", name, d)
		}
	}
}

// TestNoWidowGuardWidowSurvivesRestart: without the widow guard a member
// commits on its own although its partner rolls back. Its commit was
// acknowledged, so recovery replays it: a restart never undoes an
// acknowledged commit.
func TestNoWidowGuardWidowSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "widow.wal")
	db := openTest(t, Options{Path: path, Isolation: NoWidowGuard, RunFrequency: 2})
	h1, err := db.SubmitScript(pairScript("Mickey", "Minnie"))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := db.SubmitScript(strings.Replace(pairScript("Minnie", "Mickey"), "COMMIT;", "ROLLBACK;", 1))
	if err != nil {
		t.Fatal(err)
	}
	if o := h1.Wait(); o.Status != StatusCommitted {
		t.Fatalf("Mickey = %+v", o)
	}
	if o := h2.Wait(); o.Status != StatusRolledBack {
		t.Fatalf("Minnie = %+v", o)
	}
	db.Close()

	db2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res, err := db2.Query("SELECT name FROM Bookings")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str64() != "Mickey" {
		t.Fatalf("Bookings after restart = %v, want Mickey's acknowledged booking", res.Rows)
	}
}
