package entangle

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// allocPairScript is the benchmark's pair script: ground on the flights to
// dest, require the partner's matching answer tuple, book the chosen
// flight.
func allocPairScript(me, them, dest string) string {
	return fmt.Sprintf(`BEGIN TRANSACTION WITH TIMEOUT 60 SECONDS;
SELECT '%s', fno AS @fno, fdate AS @fdate INTO ANSWER FlightRes
WHERE fno, fdate IN (SELECT fno, fdate FROM Flights WHERE dest='%s')
AND ('%s', fno, fdate) IN ANSWER FlightRes
CHOOSE 1;
INSERT INTO Bookings VALUES ('%s', @fno, @fdate, 1);
COMMIT;`, me, dest, them, me)
}

// maxPairAllocs is the allocation ceiling of one warm in-process pair:
// parsing and compiling both scripts, two scheduling runs with three
// groundings of eight rows each, the group commit and both answers.
const maxPairAllocs = 500

// TestPairAllocs pins the allocations of one coordinated SQL pair through
// the in-process engine, submitted as the benchmark submits it, over an
// 8-row indexed bucket of Flights. A rise means a round allocates per
// grounding again, or a new allocation joined the pair's path.
func TestPairAllocs(t *testing.T) {
	db, err := Open(Options{RetryInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ExecDDL(`CREATE TABLE Flights (fno INT, fdate DATE, dest VARCHAR, seats INT);
CREATE TABLE Bookings (name VARCHAR, fno INT, fdate DATE, batch INT);`); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for fno := 1; fno <= 24; fno++ {
		rows = append(rows, fmt.Sprintf("INSERT INTO Flights VALUES (%d, '2011-05-%02d', 'D%04d', 100);",
			fno, (fno-1)%8+1, (fno-1)/8))
	}
	if _, err := db.Exec(strings.Join(rows, "\n")); err != nil {
		t.Fatal(err)
	}
	if err := db.ExecDDL("CREATE INDEX flights_dest ON Flights (dest);"); err != nil {
		t.Fatal(err)
	}
	a, b := allocPairScript("s1a", "s1b", "D0001"), allocPairScript("s1b", "s1a", "D0001")
	pair := func() {
		ha, err := db.SubmitScript(a)
		if err != nil {
			t.Fatal(err)
		}
		hb, err := db.SubmitScript(b)
		if err != nil {
			t.Fatal(err)
		}
		if oa, ob := ha.Wait(), hb.Wait(); oa.Status != StatusCommitted || ob.Status != StatusCommitted {
			t.Fatalf("pair: %v / %v", oa, ob)
		}
	}
	for i := 0; i < 20; i++ {
		pair() // warm the engine's evaluator and the tables
	}
	allocs := testing.AllocsPerRun(200, pair)
	t.Logf("%.0f allocs per pair", allocs)
	if allocs > maxPairAllocs {
		t.Errorf("a pair allocates %.0f objects, want at most %d", allocs, maxPairAllocs)
	}
}

// raceDetector is set when the tests run under the race detector.
var raceDetector bool

// Ceilings for one classical statement through DB.Exec against an indexed
// 1,000-row Notes table: lex the statement, look its shape up, bind its
// literal, one RunDirect and one index probe (plus, for the UPDATE, the
// write). A warm shape neither parses nor compiles nor plans.
const (
	maxPointSelectAllocs, maxPointSelectBytes = 30, 2400
	maxPointUpdateAllocs, maxPointUpdateBytes = 33, 3000
)

// TestClassicalStmtAllocs pins the allocations of a point SELECT and a
// point UPDATE through DB.Exec, the statements classical_mix runs, both
// with one literal text and with a literal that changes on every
// execution. A rise means the compiled path allocates per statement again
// what a warm one reuses, a statement parses or compiles again, or it
// plans or reads more than one probe.
func TestClassicalStmtAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("under the race detector sync.Pool drops entries at random, so a statement's allocations are not its own")
	}
	db, err := Open(Options{RetryInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ExecDDL("CREATE TABLE Notes (id INT, who VARCHAR, n INT); CREATE INDEX notes_id ON Notes (id);"); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for k := 0; k < 1000; k++ {
		rows = append(rows, fmt.Sprintf("INSERT INTO Notes VALUES (%d, 'w%d', %d);", k, k%97, k))
	}
	if _, err := db.Exec(strings.Join(rows, "\n")); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		src               string // with %d, the literal of each execution
		maxAllocs, maxB   int64
		wantRows, wantAff int
	}{
		{"SELECT n FROM Notes WHERE id=77", maxPointSelectAllocs, maxPointSelectBytes, 1, 0},
		{"SELECT n FROM Notes WHERE id=%d", maxPointSelectAllocs, maxPointSelectBytes, 1, 0},
		{"UPDATE Notes SET n=5 WHERE id=77", maxPointUpdateAllocs, maxPointUpdateBytes, 0, 1},
		{"UPDATE Notes SET n=5 WHERE id=%d", maxPointUpdateAllocs, maxPointUpdateBytes, 0, 1},
	} {
		srcs := []string{tc.src}
		if strings.Contains(tc.src, "%d") {
			srcs = make([]string, 1000)
			for k := range srcs {
				srcs[k] = fmt.Sprintf(tc.src, (k*7)%1000)
			}
		}
		i := 0
		exec := func() {
			src := srcs[i%len(srcs)]
			i++
			res, err := db.Exec(src)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != tc.wantRows || res.RowsAffected != tc.wantAff {
				t.Fatalf("%s: %d rows, %d affected", src, len(res.Rows), res.RowsAffected)
			}
		}
		for range 20 {
			exec()
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				exec()
			}
		})
		t.Logf("%s: %d allocs, %d B per statement", tc.src, r.AllocsPerOp(), r.AllocedBytesPerOp())
		if r.AllocsPerOp() > tc.maxAllocs || r.AllocedBytesPerOp() > tc.maxB {
			t.Errorf("%s: %d allocs, %d B per statement, want at most %d and %d",
				tc.src, r.AllocsPerOp(), r.AllocedBytesPerOp(), tc.maxAllocs, tc.maxB)
		}
	}
}
