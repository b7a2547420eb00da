package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/eq"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/types"
)

// destQuery is a self-satisfying query over the flights to dest: it is
// answered alone as soon as one exists, and stays pending (a NoPartner
// re-grounded every round) while its answer relation is someone else's.
func destQuery(me, dest string) *eq.Query {
	return &eq.Query{
		Head:   []eq.Atom{eq.NewAtom("DestRes", eq.CStr(me), eq.V("fno"))},
		Post:   []eq.Atom{eq.NewAtom("DestRes", eq.CStr(me), eq.V("fno"))},
		Body:   []eq.Atom{eq.NewAtom("Flights", eq.V("fno"), eq.V("fdate"), eq.V("dest"))},
		Where:  []eq.Constraint{{Left: eq.V("dest"), Op: eq.OpEq, Right: eq.CStr(dest)}},
		Choose: 1,
	}
}

// TestProbeIndexOwnWritesVisible: in one round, a poser holding an
// uncommitted Tokyo flight is answered with it, because the Flights(dest)
// index that round's first probe builds lists every stored version and the
// poser reads it through its own view. Two members probing the same (table,
// column) read the same index through the committed view: one finds its LA
// flight, the other no Tokyo flight at all. Once the writer commits, the
// next run answers the Tokyo member with the now-committed flight.
func TestProbeIndexOwnWritesVisible(t *testing.T) {
	e := newTestEngine(t, Options{RunFrequency: 3, RetryInterval: noTick})
	flights, err := e.Txm().Catalog().Get("Flights")
	if err != nil {
		t.Fatal(err)
	}
	scans := flights.ScanCount()
	fnos := make(map[string]int64)
	var mu sync.Mutex
	prog := func(me, dest string, insert bool) Program {
		return Program{Name: me, Timeout: time.Minute, Body: func(tx *Tx) error {
			if insert {
				if _, err := tx.Insert("Flights", types.Tuple{types.Int(777), types.MustDate("2011-07-01"), types.Str(dest)}); err != nil {
					return err
				}
			}
			a := tx.Entangle(destQuery(me, dest))
			if a.Status != eq.Answered {
				return fmt.Errorf("%s: %v", me, a.Status)
			}
			mu.Lock()
			fnos[me] = a.Bindings["fno"].Int64()
			mu.Unlock()
			return nil
		}}
	}
	hw := e.Submit(prog("writer", "Tokyo", true))
	hr := e.Submit(prog("reader", "LA", false))
	ht := e.Submit(prog("tokyo", "Tokyo", false))
	if o := waitWithin(t, hw, 5*time.Second); o.Status != StatusCommitted {
		t.Fatalf("writer: %+v", o)
	}
	if got := flights.ScanCount() - scans; got != 1 {
		t.Errorf("Flights read whole %d times in the first run, want 1 (one index build)", got)
	}
	// The reader's quasi-read lock was not free while the writer held IX
	// on Flights, so it retries too.
	e.Flush()
	if o := waitWithin(t, hr, 5*time.Second); o.Status != StatusCommitted {
		t.Fatalf("reader: %+v", o)
	}
	if o := waitWithin(t, ht, 5*time.Second); o.Status != StatusCommitted || o.Attempts != 2 {
		t.Fatalf("tokyo: %+v; want committed on its second attempt (the index leaked an uncommitted row?)", o)
	}
	if fnos["writer"] != 777 || fnos["tokyo"] != 777 || fnos["reader"] != 122 {
		t.Errorf("answers %v, want writer and tokyo on 777, reader on 122", fnos)
	}
	if st := e.Stats(); st.IndexedGroundings != 0 {
		t.Errorf("IndexedGroundings = %d with no declared index on dest", st.IndexedGroundings)
	}
}

// TestProbeIndexMaintainedAcrossCommits: a pending query re-grounded round
// after round builds the Flights(dest) index once; a committed insert is
// added to it, so the next round rebuilds nothing and reads only the grown
// bucket.
func TestProbeIndexMaintainedAcrossCommits(t *testing.T) {
	e := newTestEngine(t, Options{RunFrequency: 100, RetryInterval: noTick})
	flights, err := e.Txm().Catalog().Get("Flights")
	if err != nil {
		t.Fatal(err)
	}
	h := e.Submit(Program{Name: "pending", Timeout: time.Minute, Body: func(tx *Tx) error {
		tx.Entangle(flightQuery("Mickey", "Minnie")) // Minnie never comes
		return nil
	}})
	round := func() (builds, rows int64) {
		c, r := flights.ScanCount(), e.Stats().GroundRowsStreamed
		e.Flush()
		return flights.ScanCount() - c, e.Stats().GroundRowsStreamed - r
	}
	// Four Flights rows, three to LA: the probe reads only the LA bucket.
	if c, r := round(); c != 1 || r != 3 {
		t.Fatalf("first round: %d builds, %d rows; want 1 build, then the 3-row bucket", c, r)
	}
	if c, r := round(); c != 0 || r != 3 {
		t.Fatalf("unchanged table: %d builds, %d rows; want the index reused (0, 3)", c, r)
	}
	tx, err := e.BeginClassical()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("Flights", types.Tuple{types.Int(900), types.MustDate("2011-06-01"), types.Str("LA")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if c, r := round(); c != 0 || r != 4 {
		t.Fatalf("after a commit: %d builds, %d rows; want the maintained index (0, 4)", c, r)
	}
	e.Close()
	if o := waitWithin(t, h, 5*time.Second); o.Status != StatusFailed {
		t.Fatalf("pending member: %+v", o)
	}
}

// TestProbeIndexHidesLaterCommits: a round whose snapshot predates a
// committed insert does not see the row through the index, though the
// index lists it; a round at a later snapshot does.
func TestProbeIndexHidesLaterCommits(t *testing.T) {
	e := newTestEngine(t, Options{})
	cat := e.Txm().Catalog()
	probe := func(view storage.Snapshot) int {
		t.Helper()
		g := &groundReader{view: view, cat: cat}
		cur, err := g.ProbeCursor("Flights", []int{2}, []types.Value{types.Str("LA")})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			rows, err := cur.Next(nil, 8)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) == 0 {
				return n
			}
			n += len(rows)
		}
	}
	old := storage.Snapshot{CSN: e.Txm().CSN()}
	if n := probe(old); n != 3 {
		t.Fatalf("LA rows before the insert: %d, want 3", n)
	}
	tx, err := e.BeginClassical()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("Flights", types.Tuple{types.Int(900), types.MustDate("2011-06-01"), types.Str("LA")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := probe(old); n != 3 {
		t.Errorf("a round at the older snapshot read %d LA rows, want 3", n)
	}
	if n := probe(storage.Snapshot{CSN: e.Txm().CSN()}); n != 4 {
		t.Errorf("a round after the commit read %d LA rows, want 4", n)
	}
}

// TestQuasiLockRefusalDoesNotStallScheduler: A holds S(Flights) from its
// own read; a classical UPDATE queues IX behind it; B's quasi-read S may not
// overtake that IX. Waiting for it would close a cycle through group commit
// that deadlock detection cannot see, so every run would stall for the
// lock-wait timeout (5 s here). B's lock is refused instead, the component
// aborts and releases its locks, the UPDATE goes through, and both partners
// commit in the next run.
func TestQuasiLockRefusalDoesNotStallScheduler(t *testing.T) {
	locks := lock.New(5 * time.Second)
	e := newTestEngineOn(t, Options{RunFrequency: 2, RetryInterval: noTick}, locks)
	release := make(chan struct{})
	aRead := make(chan struct{}, 1)
	prog := func(me, them string) Program {
		return Program{Name: me, Timeout: 30 * time.Second, Body: func(tx *Tx) error {
			if me == "A" {
				if _, err := tx.Scan("Flights"); err != nil {
					return err
				}
				select {
				case aRead <- struct{}{}:
				default:
				}
			} else {
				<-release
			}
			if a := tx.Entangle(flightQuery(me, them)); a.Status != eq.Answered {
				return fmt.Errorf("%s: %v", me, a.Status)
			}
			return nil
		}}
	}
	ha := e.Submit(prog("A", "B"))
	hb := e.Submit(prog("B", "A"))
	<-aRead
	_, waitsBefore, _ := locks.Stats()
	updated := make(chan Outcome, 1)
	go func() {
		updated <- e.RunDirect(Program{Name: "update", Timeout: 30 * time.Second, Body: func(tx *Tx) error {
			return tx.Update("Flights", 0, types.Tuple{types.Int(122), types.MustDate("2011-05-06"), types.Str("LA")})
		}})
	}()
	eventually(t, 5*time.Second, "the UPDATE to queue", func() bool {
		_, waits, _ := locks.Stats()
		return waits > waitsBefore
	})
	start := time.Now()
	close(release)
	if o := <-updated; o.Status != StatusCommitted {
		t.Fatalf("UPDATE: %+v", o)
	}
	e.Flush()
	for _, h := range []*Handle{ha, hb} {
		if o := waitWithin(t, h, 5*time.Second); o.Status != StatusCommitted {
			t.Fatalf("partner: %+v", o)
		}
	}
	if d := time.Since(start); d >= time.Second {
		t.Fatalf("exchange took %v: the scheduler waited in the lock manager", d)
	}
}

// TestIndexedGroundingStats: with an equality index on the constrained
// column, grounding routes the Flights atom through an index probe (the
// Stats counter proves it) and the pair still books one common flight —
// identical to the scan path.
func TestIndexedGroundingStats(t *testing.T) {
	e := newTestEngine(t, Options{RunFrequency: 2})
	if err := e.Txm().CreateIndex("Flights", "flights_dest", []string{"dest"}); err != nil {
		t.Fatal(err)
	}
	h1 := e.Submit(bookFlightProg("Mickey", "Minnie", 5*time.Second))
	h2 := e.Submit(bookFlightProg("Minnie", "Mickey", 5*time.Second))
	if o := h1.Wait(); o.Status != StatusCommitted {
		t.Fatalf("outcome %+v", o)
	}
	if o := h2.Wait(); o.Status != StatusCommitted {
		t.Fatalf("outcome %+v", o)
	}
	if st := e.Stats(); st.IndexedGroundings == 0 {
		t.Error("no grounding atom was index-routed")
	}
	rows := scanAll(t, e, "Reservations")
	if len(rows) != 2 || !rows[0][1].Equal(rows[1][1]) {
		t.Fatalf("reservations = %v", rows)
	}
}

// tokyoQuery is a self-satisfying entangled query (its postcondition is its
// own head), so it is answered alone as soon as a grounding exists.
func tokyoQuery() *eq.Query {
	return &eq.Query{
		Head:   []eq.Atom{eq.NewAtom("FlightRes", eq.CStr("X"), eq.V("fno"))},
		Post:   []eq.Atom{eq.NewAtom("FlightRes", eq.CStr("X"), eq.V("fno"))},
		Body:   []eq.Atom{eq.NewAtom("Flights", eq.V("fno"), eq.V("fdate"), eq.V("dest"))},
		Where:  []eq.Constraint{{Left: eq.V("dest"), Op: eq.OpEq, Right: eq.CStr("Tokyo")}},
		Choose: 1,
	}
}

// TestPendingMemberAnswersFromPostCommitRows: a partner-less query pends
// across rounds that probe one Flights index; a committed write replaces
// every LA flight, and the eventual answer reflects the new committed
// state, never the rows the earlier rounds grounded on.
func TestPendingMemberAnswersFromPostCommitRows(t *testing.T) {
	e := newTestEngine(t, Options{RunFrequency: 100, RetryInterval: noTick})
	h1 := e.Submit(bookFlightProg("Mickey", "Minnie", time.Minute))
	e.Flush()
	e.Flush()
	e.Flush()

	// Replace every LA flight with a new one: a stale grounding would book a
	// deleted flight.
	tx, err := e.BeginClassical()
	if err != nil {
		t.Fatal(err)
	}
	ids, rows, err := tx.ScanIDs("Flights")
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		if row[2].Str64() == "LA" {
			if err := tx.Delete("Flights", ids[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := tx.Insert("Flights", types.Tuple{types.Int(900), types.MustDate("2011-06-01"), types.Str("LA")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	h2 := e.Submit(bookFlightProg("Minnie", "Mickey", time.Minute))
	e.Flush()
	if o := h1.Wait(); o.Status != StatusCommitted {
		t.Fatalf("Mickey: %+v", o)
	}
	if o := h2.Wait(); o.Status != StatusCommitted {
		t.Fatalf("Minnie: %+v", o)
	}
	for _, row := range scanAll(t, e, "Reservations") {
		if row[1].Int64() != 900 {
			t.Errorf("stale grounding leaked: booked flight %v, want 900", row[1])
		}
	}
}

// TestPoserGroundsOwnUncommittedFlight: a poser holding uncommitted writes
// on a grounded table grounds through its own view, so it is answered with
// the Tokyo flight it inserted even though every earlier round of the same
// query found none.
func TestPoserGroundsOwnUncommittedFlight(t *testing.T) {
	e := newTestEngine(t, Options{RunFrequency: 100, RetryInterval: 5 * time.Millisecond})

	// A pends on the Tokyo query (no Tokyo flights exist): every round
	// grounds to zero valuations, and A eventually times out.
	hA := e.Submit(Program{
		Name:    "A",
		Timeout: 250 * time.Millisecond,
		Body: func(tx *Tx) error {
			a := tx.Entangle(tokyoQuery())
			return fmt.Errorf("A unexpectedly resumed: %v", a.Status)
		},
	})
	e.Flush()
	e.Flush()
	if o := hA.Wait(); o.Status != StatusTimedOut {
		t.Fatalf("A: %+v", o)
	}

	// B inserts the only Tokyo flight uncommitted, then poses the identical
	// query. Only B's own view, not the committed state A grounded on,
	// holds the flight.
	var answered eq.Status
	var fno int64
	hB := e.Submit(Program{
		Name:    "B",
		Timeout: 5 * time.Second,
		Body: func(tx *Tx) error {
			if _, err := tx.Insert("Flights", types.Tuple{
				types.Int(777), types.MustDate("2011-07-01"), types.Str("Tokyo"),
			}); err != nil {
				return err
			}
			a := tx.Entangle(tokyoQuery())
			answered = a.Status
			if a.Status != eq.Answered {
				return fmt.Errorf("B: %v", a.Status)
			}
			fno = a.Bindings["fno"].Int64()
			return nil
		},
	})
	e.Flush()
	if o := hB.Wait(); o.Status != StatusCommitted {
		t.Fatalf("B: %+v (grounded on the committed state, not its own writes?)", o)
	}
	if answered != eq.Answered || fno != 777 {
		t.Fatalf("B answered %v fno=%d, want ANSWERED fno=777", answered, fno)
	}
}

// TestGroundingsCountedPerRound: Stats.GroundCacheMisses counts the queries
// grounded — a pending member re-grounds in every round a Flush runs — and
// GroundCacheHits stays 0.
func TestGroundingsCountedPerRound(t *testing.T) {
	e := newTestEngine(t, Options{RunFrequency: 100, RetryInterval: noTick})
	e.Submit(bookFlightProg("Mickey", "Minnie", time.Minute))
	for round := int64(1); round <= 3; round++ {
		e.Flush()
		if st := e.Stats(); st.GroundCacheMisses != round || st.GroundCacheHits != 0 {
			t.Fatalf("after Flush %d: %d groundings, %d hits; want %d, 0", round, st.GroundCacheMisses, st.GroundCacheHits, round)
		}
	}
}
