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

// TestPartitionOwnWritesBypass: in one round, a poser holding an
// uncommitted Tokyo flight grounds through its own view and is answered
// with it, while two members probing the same (table, column) share the
// committed partition: one finds its LA flight, the other no Tokyo flight
// at all. Once the writer commits, the next run rebuilds the partition and
// the Tokyo member is answered with the now-committed flight.
func TestPartitionOwnWritesBypass(t *testing.T) {
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
		t.Errorf("Flights captured %d times in the first run, want 1 (one shared build)", got)
	}
	// The reader's quasi-read lock was not free while the writer held IX
	// on Flights, so it retries too.
	e.Flush()
	if o := waitWithin(t, hr, 5*time.Second); o.Status != StatusCommitted {
		t.Fatalf("reader: %+v", o)
	}
	if o := waitWithin(t, ht, 5*time.Second); o.Status != StatusCommitted || o.Attempts != 2 {
		t.Fatalf("tokyo: %+v; want committed on its second attempt (the partition leaked an uncommitted row?)", o)
	}
	if fnos["writer"] != 777 || fnos["tokyo"] != 777 || fnos["reader"] != 122 {
		t.Errorf("answers %v, want writer and tokyo on 777, reader on 122", fnos)
	}
	if st := e.Stats(); st.IndexedGroundings != 0 {
		t.Errorf("IndexedGroundings = %d with no index on dest", st.IndexedGroundings)
	}
}

// TestPartitionReusedUntilCommit: a pending query re-grounded round after
// round reads one stored partition until a commit touches the table; the
// capture count and the rows-read total show the build, the reuse, and the
// rebuild.
func TestPartitionReusedUntilCommit(t *testing.T) {
	e := newTestEngine(t, Options{RunFrequency: 100, RetryInterval: noTick})
	flights, err := e.Txm().Catalog().Get("Flights")
	if err != nil {
		t.Fatal(err)
	}
	h := e.Submit(Program{Name: "pending", Timeout: time.Minute, Body: func(tx *Tx) error {
		tx.Entangle(flightQuery("Mickey", "Minnie")) // Minnie never comes
		return nil
	}})
	round := func() (captures, rows int64) {
		c, r := flights.ScanCount(), e.Stats().GroundRowsStreamed
		e.Flush()
		return flights.ScanCount() - c, e.Stats().GroundRowsStreamed - r
	}
	// Four Flights rows, three to LA: a build reads all four, then the
	// probe pulls the LA bucket.
	if c, r := round(); c != 1 || r != 4+3 {
		t.Fatalf("first round: %d captures, %d rows; want 1 build of 4 rows plus 3", c, r)
	}
	if c, r := round(); c != 0 || r != 3 {
		t.Fatalf("unchanged table: %d captures, %d rows; want the stored partition reused (0, 3)", c, r)
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
	if c, r := round(); c != 1 || r != 5+4 {
		t.Fatalf("after a commit: %d captures, %d rows; want a rebuild (1, 5+4)", c, r)
	}
	if c, _ := round(); c != 0 {
		t.Fatalf("rebuilt partition not reused: %d captures", c)
	}
	e.Close()
	if o := waitWithin(t, h, 5*time.Second); o.Status != StatusFailed {
		t.Fatalf("pending member: %+v", o)
	}
}

// TestPartitionSharedAcrossWorkers: sixteen queries of one round probing
// the same (table, column set) from eight grounding workers build the
// partition once (one capture) and still all coordinate. Run under -race it
// checks the per-entry Once.
func TestPartitionSharedAcrossWorkers(t *testing.T) {
	const pairs = 8
	e := newTestEngine(t, Options{RunFrequency: 2 * pairs, GroundWorkers: 8, RetryInterval: noTick})
	flights, err := e.Txm().Catalog().Get("Flights")
	if err != nil {
		t.Fatal(err)
	}
	before := flights.ScanCount()
	var handles []*Handle
	for i := 0; i < pairs; i++ {
		a, b := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
		handles = append(handles,
			e.Submit(bookFlightProg(a, b, 5*time.Second)),
			e.Submit(bookFlightProg(b, a, 5*time.Second)))
	}
	for _, h := range handles {
		if o := waitWithin(t, h, 5*time.Second); o.Status != StatusCommitted {
			t.Fatalf("outcome %+v", o)
		}
	}
	if got := flights.ScanCount() - before; got != 1 {
		t.Fatalf("Flights captured %d times for one round of %d probes, want 1", got, 2*pairs)
	}
}

// TestPartitionNotKeptPastSnapshot: a partition built by a round whose
// snapshot predates the table's last commit serves that round but is not
// kept — its fingerprint could otherwise validate for a later round that
// does see the commit.
func TestPartitionNotKeptPastSnapshot(t *testing.T) {
	e := newTestEngine(t, Options{})
	cat := e.Txm().Catalog()
	flights, err := cat.Get("Flights")
	if err != nil {
		t.Fatal(err)
	}
	rc := newRoundCursors(cat, nil)
	now := storage.Snapshot{CSN: e.Txm().CSN()}
	for _, c := range []struct {
		view  storage.Snapshot
		built int64
	}{
		{storage.Snapshot{CSN: flights.LastCSN() - 1}, 1}, // the data load is invisible
		{now, 1}, // not kept: rebuilt
		{now, 0}, // kept: reused
	} {
		before := flights.ScanCount()
		rc.newRound(c.view).partition(flights, []int{2})
		if got := flights.ScanCount() - before; got != c.built {
			t.Fatalf("round at CSN %d built %d partitions, want %d", c.view.CSN, got, c.built)
		}
	}
}

// TestPartitionPullZeroAlloc: pulling a partition bucket appends row
// references into the caller's buffer and allocates nothing, like the
// storage cursors underneath.
func TestPartitionPullZeroAlloc(t *testing.T) {
	e := newTestEngine(t, Options{})
	cat := e.Txm().Catalog()
	flights, err := cat.Get("Flights")
	if err != nil {
		t.Fatal(err)
	}
	rc := newRoundCursors(cat, nil).newRound(storage.Snapshot{CSN: e.Txm().CSN()})
	cur, err := rc.partition(flights, []int{2}).cursor([]types.Value{types.Str("LA")})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]types.Tuple, 0, 8)
	n := 0
	drain := func() {
		cur.Rewind()
		n = 0
		for {
			out, _ := cur.Next(buf[:0], 2)
			if len(out) == 0 {
				return
			}
			n += len(out)
		}
	}
	drain()
	if n != 3 {
		t.Fatalf("LA bucket served %d rows, want 3", n)
	}
	if allocs := testing.AllocsPerRun(100, drain); allocs != 0 {
		t.Fatalf("partition pull allocated %v times per drain, want 0", allocs)
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
