package entangle

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// Snapshot consistency: every StatsSnapshot taken while submissions and
// settlements race must be internally consistent — the settled counters
// (commits + timeouts + rollbacks + failures) can never exceed submitted,
// because both sides of that inequality move under the engine's stats
// lock and the snapshot reads the whole registry under it too. Run with
// -race; before the single-registry refactor each field was copied from
// its own atomic in sequence and this invariant had a window.
func TestStatsSnapshotConsistentUnderLoad(t *testing.T) {
	db := openTest(t, Options{RunFrequency: 2, RetryInterval: 2 * time.Millisecond})
	// The direct-exec seeding above commits without submitting, so the
	// invariant is on deltas from this baseline: only Submit-path traffic
	// runs from here on.
	base := db.StatsSnapshot()
	settledIn := func(s StatsSnapshot) int64 { return s.Commits + s.Timeouts + s.Rollbacks + s.Failures }

	const pairs = 24
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Snapshot reader: hammer StatsSnapshot while pairs settle.
	var bad []StatsSnapshot
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := db.StatsSnapshot()
			if settledIn(s)-settledIn(base) > s.Submitted-base.Submitted {
				bad = append(bad, s)
				return
			}
		}
	}()

	outcomes := make(chan Outcome, 2*pairs)
	for i := 0; i < pairs; i++ {
		me, them := fmt.Sprintf("A%d", i), fmt.Sprintf("B%d", i)
		for _, pair := range [][2]string{{me, them}, {them, me}} {
			wg.Add(1)
			go func(me, them string) {
				defer wg.Done()
				h, err := db.SubmitScript(pairScript(me, them))
				if err != nil {
					t.Error(err)
					return
				}
				outcomes <- h.Wait()
			}(pair[0], pair[1])
		}
	}
	for i := 0; i < 2*pairs; i++ {
		if o := <-outcomes; o.Status != StatusCommitted {
			t.Fatalf("pair member %d: %+v", i, o)
		}
	}
	close(stop)
	wg.Wait()

	if len(bad) > 0 {
		s := bad[0]
		t.Fatalf("inconsistent snapshot: settled=%d > submitted=%d (%+v)",
			settledIn(s)-settledIn(base), s.Submitted-base.Submitted, s)
	}
	final := db.StatsSnapshot()
	if got, want := settledIn(final)-settledIn(base), final.Submitted-base.Submitted; got != want {
		t.Fatalf("final snapshot not settled: %d of %d", got, want)
	}
	if final.Commits-base.Commits != 2*pairs {
		t.Fatalf("commits = %d, want %d", final.Commits-base.Commits, 2*pairs)
	}
}

// TestTracedProgramsLeaveNoLiveTrace: every traced program's trace is
// finished once the program settles. Submit begins the trace before it
// publishes the program to the scheduler; begun after, a program that
// settled first had its finished trace re-created as a live one nothing
// finishes, and Get returned that empty trace in place of the finished one.
func TestTracedProgramsLeaveNoLiveTrace(t *testing.T) {
	tracer := obs.NewTracer(obs.TracerOptions{RingSize: 1024})
	db := openTest(t, Options{Tracer: tracer})
	const submitters, perSubmitter = 4, 100
	ids := make([][]uint64, submitters)
	handles := make([][]*Handle, submitters)
	var wg sync.WaitGroup
	for s := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				id := obs.MintID()
				h, err := db.SubmitScriptTraced("SELECT fno FROM Flights WHERE dest='LA';", id)
				if err != nil {
					t.Error(err)
					return
				}
				ids[s] = append(ids[s], id)
				handles[s] = append(handles[s], h)
			}
		}()
	}
	wg.Wait()
	answered := func(sp obs.Span) bool { return sp.Name == "answer" }
	for s := range handles {
		for i, h := range handles[s] {
			if o := h.Wait(); o.Status != StatusCommitted {
				t.Fatalf("program %d/%d: %+v", s, i, o)
			}
			if tr, ok := tracer.Get(ids[s][i]); !ok || !slices.ContainsFunc(tr.Spans, answered) {
				t.Fatalf("program %d/%d: trace %d = %+v (found %v), want the finished trace with its answer span", s, i, ids[s][i], tr, ok)
			}
		}
	}
}

// A manual DB.Vacuum pass is what the vacuums and versions_pruned counters
// count.
func TestVacuumCountsInStats(t *testing.T) {
	db := openTest(t, Options{})
	for i := 0; i < 2; i++ {
		if _, err := db.Exec("UPDATE Flights SET dest = 'SF' WHERE fno = 122"); err != nil {
			t.Fatal(err)
		}
	}
	pruned := db.Vacuum()
	if pruned == 0 {
		t.Fatal("vacuum after two updates pruned nothing")
	}
	s := db.StatsSnapshot()
	if s.Vacuums != 1 || s.VersionsPruned != int64(pruned) {
		t.Errorf("stats: vacuums=%d versions_pruned=%d, want 1 and %d", s.Vacuums, s.VersionsPruned, pruned)
	}
}
