package entangle

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"
)

// Determinism regression for run evaluation: the same seeded workload of
// entangled pairs, executed twice on fresh databases, must produce
// identical eq.Solve choices — observable as the flight each participant
// booked — and identical final table states. The booking scripts leave the
// chosen grounding in the Bookings table, so choice divergence anywhere in
// the pipeline shows up as a table diff.

// runDeterministicWorkload executes `pairs` entangled pairs over a Flights
// table with several equally-eligible rows and returns the sorted final
// contents of every table.
func runDeterministicWorkload(t *testing.T, pairs, seed int) map[string][]string {
	t.Helper()
	db, err := Open(Options{
		RunFrequency:   2,
		DefaultTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ExecDDL(`
		CREATE TABLE Flights (fno INT, dest VARCHAR);
		CREATE TABLE Bookings (name VARCHAR, fno INT);
	`); err != nil {
		t.Fatal(err)
	}
	// Several same-destination flights: every pair has multiple candidate
	// groundings, so Solve's choice is not forced.
	for i := 0; i < 4; i++ {
		if _, err := db.Exec(fmt.Sprintf(`INSERT INTO Flights VALUES (%d, 'LA')`, 120+seed+i)); err != nil {
			t.Fatal(err)
		}
	}

	handles := make([]*Handle, 0, 2*pairs)
	for p := 0; p < pairs; p++ {
		a := fmt.Sprintf("s%da%d", seed, p)
		b := fmt.Sprintf("s%db%d", seed, p)
		for _, pair := range [][2]string{{a, b}, {b, a}} {
			script := fmt.Sprintf(`
				BEGIN TRANSACTION WITH TIMEOUT 30 SECONDS;
				SELECT '%s', fno AS @fno INTO ANSWER R
				WHERE fno IN (SELECT fno FROM Flights WHERE dest='LA')
				AND ('%s', fno) IN ANSWER R
				CHOOSE 1;
				INSERT INTO Bookings VALUES ('%s', @fno);
				COMMIT;`, pair[0], pair[1], pair[0])
			h, err := db.SubmitScript(script)
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		}
		// Both members of the pair are in the pool; RunFrequency=2 starts
		// the run, so scheduling is the same batch sequence in both runs.
		for _, h := range handles[len(handles)-2:] {
			if o := h.Wait(); o.Status != StatusCommitted {
				t.Fatalf("pair %d: %+v", p, o)
			}
		}
	}

	state := make(map[string][]string)
	for _, name := range db.Catalog().Names() {
		tbl, err := db.Catalog().Get(name)
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		for _, row := range tbl.All() {
			rows = append(rows, row.String())
		}
		sort.Strings(rows)
		state[name] = rows
	}
	return state
}

func TestSeededRerunDeterminism(t *testing.T) {
	const pairs = 8
	for seed := 1; seed <= 3; seed++ {
		first := runDeterministicWorkload(t, pairs, seed)
		second := runDeterministicWorkload(t, pairs, seed)
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("seed %d: re-run diverged\nfirst:  %v\nsecond: %v", seed, first, second)
		}
		if n := len(first["Bookings"]); n != 2*pairs {
			t.Fatalf("seed %d: %d bookings, want %d", seed, n, 2*pairs)
		}
	}
}
