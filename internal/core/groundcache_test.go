package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/eq"
	"repro/internal/txn"
	"repro/internal/types"
)

// TestRoundScanCacheOneScanPerRound is the regression test for the round
// scan cache: an evaluation round with k queries grounding on one table
// must perform exactly one snapshot scan of it, not k.
func TestRoundScanCacheOneScanPerRound(t *testing.T) {
	const pairs = 3 // 6 members, all grounding on Flights
	// A huge retry interval keeps the ticker from starting a partial run
	// before all members have arrived, so exactly one round evaluates.
	e := newTestEngine(t, Options{RunFrequency: 2 * pairs, RetryInterval: time.Hour})
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
		if o := h.Wait(); o.Status != StatusCommitted {
			t.Fatalf("outcome %+v", o)
		}
	}
	if got := flights.ScanCount() - before; got != 1 {
		t.Fatalf("Flights scanned %d times for one round of %d queries, want 1", got, 2*pairs)
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
// own head), so it is answered alone as soon as a grounding exists. Both
// test programs must pose the byte-identical query so they share one
// grounding-cache entry.
func tokyoQuery() *eq.Query {
	return &eq.Query{
		Head:   []eq.Atom{eq.NewAtom("FlightRes", eq.CStr("X"), eq.V("fno"))},
		Post:   []eq.Atom{eq.NewAtom("FlightRes", eq.CStr("X"), eq.V("fno"))},
		Body:   []eq.Atom{eq.NewAtom("Flights", eq.V("fno"), eq.V("fdate"), eq.V("dest"))},
		Where:  []eq.Constraint{{Left: eq.V("dest"), Op: eq.OpEq, Right: eq.CStr("Tokyo")}},
		Choose: 1,
	}
}

// TestGroundCacheInvalidatedByCommittedWrite drives the cross-round cache
// through its lifecycle: a partner-less query re-grounded across rounds
// hits the cache; a committed write to the grounded table advances its
// LastCSN and forces a re-ground; the eventual answer reflects the new
// committed state, never the cached rows.
func TestGroundCacheInvalidatedByCommittedWrite(t *testing.T) {
	e := newTestEngine(t, Options{RunFrequency: 100, GroundCache: true, RetryInterval: time.Hour})
	h1 := e.Submit(bookFlightProg("Mickey", "Minnie", time.Minute))
	e.Flush() // round 1: cold miss, cache populated
	e.Flush() // round 2: hit
	e.Flush() // round 3: hit
	st := e.Stats()
	if st.GroundCacheHits < 2 {
		t.Fatalf("GroundCacheHits = %d, want >= 2", st.GroundCacheHits)
	}
	if st.GroundCacheMisses < 1 {
		t.Fatalf("GroundCacheMisses = %d, want >= 1", st.GroundCacheMisses)
	}

	// Replace every LA flight with a new one: a cached (stale) grounding
	// would book a deleted flight.
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

	missesBefore := e.Stats().GroundCacheMisses
	h2 := e.Submit(bookFlightProg("Minnie", "Mickey", time.Minute))
	e.Flush()
	if o := h1.Wait(); o.Status != StatusCommitted {
		t.Fatalf("Mickey: %+v", o)
	}
	if o := h2.Wait(); o.Status != StatusCommitted {
		t.Fatalf("Minnie: %+v", o)
	}
	if got := e.Stats().GroundCacheMisses; got <= missesBefore {
		t.Errorf("committed write did not invalidate: misses %d -> %d", missesBefore, got)
	}
	for _, row := range scanAll(t, e, "Reservations") {
		if row[1].Int64() != 900 {
			t.Errorf("stale cached grounding leaked: booked flight %v, want 900", row[1])
		}
	}
}

// TestGroundCachePoserWriteBypass: a poser holding uncommitted writes on a
// grounded table must bypass the cache — its grounding view includes its
// own versions, which the shared committed-state entry cannot represent.
func TestGroundCachePoserWriteBypass(t *testing.T) {
	e := newTestEngine(t, Options{RunFrequency: 100, GroundCache: true, RetryInterval: 5 * time.Millisecond})

	// A pends on the Tokyo query (no Tokyo flights exist): every round
	// grounds to zero valuations; round 1 populates the cache with the
	// empty result, later rounds hit it, and A eventually times out.
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
	if st := e.Stats(); st.GroundCacheHits < 1 {
		t.Fatalf("empty grounding not cached: %+v", st)
	}

	// B inserts the only Tokyo flight uncommitted, then poses the identical
	// query. The cached empty entry is still CSN-current (uncommitted
	// writes do not advance LastCSN), so only the poser-write bypass makes
	// B see its own flight.
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
		t.Fatalf("B: %+v (cache served a stale empty grounding?)", o)
	}
	if answered != eq.Answered || fno != 777 {
		t.Fatalf("B answered %v fno=%d, want ANSWERED fno=777", answered, fno)
	}
}

// TestGroundCacheSnapshotBoundary: a grounding computed while an invisible
// commit has already advanced a table past the round snapshot must not be
// cached (its fingerprint would wrongly validate for later rounds). Here we
// exercise the store-side guard directly.
func TestGroundCacheStoreRefusesFutureFingerprint(t *testing.T) {
	e := newTestEngine(t, Options{GroundCache: true})
	cat := e.Txm().Catalog()
	c := newGroundCache(0)
	// Commit a write so Flights.LastCSN > 0, then claim the grounding ran
	// against snapshot CSN 0: the store must refuse.
	tx, err := e.BeginClassical()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("Flights", types.Tuple{types.Int(1), types.MustDate("2011-01-01"), types.Str("LA")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	c.store("q", []string{"Flights"}, 0, cat, nil, nil)
	if _, ok := c.lookup("q", cat, nil); ok {
		t.Fatal("entry with future fingerprint was stored")
	}
}

// TestGroundCacheEvictsAtCapacity: the FIFO bound keeps the cache from
// growing without limit under a stream of distinct queries.
func TestGroundCacheEvictsAtCapacity(t *testing.T) {
	e := newTestEngine(t, Options{})
	cat := e.Txm().Catalog()
	c := newGroundCache(2)
	c.store("q1", []string{"Flights"}, 100, cat, nil, nil)
	c.store("q2", []string{"Flights"}, 100, cat, nil, nil)
	c.store("q3", []string{"Flights"}, 100, cat, nil, nil)
	if _, ok := c.lookup("q1", cat, nil); ok {
		t.Error("q1 not evicted")
	}
	for _, k := range []string{"q2", "q3"} {
		if _, ok := c.lookup(k, cat, nil); !ok {
			t.Errorf("%s missing", k)
		}
	}
}

// TestGroundCacheBypassWithWritingPoser exercises lookup's poser check at
// the unit level: a transaction with uncommitted writes on the grounded
// table is bypassed, one without is served.
func TestGroundCacheLookupPoserCheck(t *testing.T) {
	e := newTestEngine(t, Options{})
	cat := e.Txm().Catalog()
	c := newGroundCache(0)
	c.store("q", []string{"Flights"}, 100, cat, nil, []*eq.Grounding{})
	writer, err := e.Txm().Begin(txn.Serializable)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Abort()
	if _, err := writer.Insert("Flights", types.Tuple{types.Int(5), types.MustDate("2011-01-01"), types.Str("LA")}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.lookup("q", cat, writer); ok {
		t.Error("writing poser was served from the cache")
	}
	reader, err := e.Txm().Begin(txn.Serializable)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Abort()
	if _, ok := c.lookup("q", cat, reader); !ok {
		t.Error("non-writing poser was not served")
	}
}

// TestGroundCacheOrderBounded: invalidating and re-storing one key, as
// every committed write to a pending query's table does, keeps one
// eviction-order slot no matter how often it happens, and a re-stored key
// counts as the newest at capacity.
func TestGroundCacheOrderBounded(t *testing.T) {
	e := newTestEngine(t, Options{})
	cat := e.Txm().Catalog()
	commit := func(table string, row types.Tuple) {
		t.Helper()
		tx, err := e.BeginClassical()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Insert(table, row); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	flight := types.Tuple{types.Int(1), types.MustDate("2011-01-01"), types.Str("LA")}
	c := newGroundCache(4)
	for i := 0; i < 1000; i++ {
		commit("Flights", flight)
		if _, ok := c.lookup("hot", cat, nil); ok {
			t.Fatalf("iteration %d: stale entry served", i)
		}
		c.store("hot", []string{"Flights"}, e.Txm().CSN(), cat, nil, nil)
	}
	if n := c.order.Len(); n != 1 {
		t.Fatalf("eviction order holds %d slots for one key, want 1", n)
	}
	for _, k := range []string{"q1", "q2", "q3"} {
		c.store(k, []string{"Hotels"}, e.Txm().CSN(), cat, nil, nil)
	}
	commit("Flights", flight)
	c.store("hot", []string{"Flights"}, e.Txm().CSN(), cat, nil, nil)
	c.store("q4", []string{"Hotels"}, e.Txm().CSN(), cat, nil, nil)
	if _, ok := c.lookup("q1", cat, nil); ok {
		t.Error("q1, the oldest store, was not evicted")
	}
	for _, k := range []string{"hot", "q2", "q3", "q4"} {
		if _, ok := c.lookup(k, cat, nil); !ok {
			t.Errorf("%s missing: the re-stored key must outlive older ones", k)
		}
	}
}
