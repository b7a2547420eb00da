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
