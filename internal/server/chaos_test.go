package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/entangle"
	"repro/entangle/client"
	"repro/internal/fault"
	"repro/internal/wire"
)

// startFaultServer is startServer with explicit server options (admission
// control, fault registry). The registry's points start disarmed, so the
// test controls exactly when chaos begins.
func startFaultServer(t *testing.T, dbOpts entangle.Options, opts Options) (string, *entangle.DB, *Server) {
	t.Helper()
	db, err := entangle.Open(dbOpts)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(db, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-served; err != nil && !errors.Is(err, ErrServerClosed) {
			t.Errorf("serve: %v", err)
		}
		db.Close()
	})
	return ln.Addr().String(), db, srv
}

// chaosSeed returns the fault seed: fixed by default so CI failures
// reproduce, overridable via CHAOS_SEED for exploratory runs.
func chaosSeed(t *testing.T) int64 {
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED: %v", err)
		}
		t.Logf("chaos seed %d (from CHAOS_SEED)", v)
		return v
	}
	return 20110807
}

// selfHealing are client options tuned for a hostile network: tight
// backoff so the test stays fast, deep budgets so injected faults do not
// exhaust a call that would eventually succeed.
var selfHealing = client.Options{
	DialTimeout:         5 * time.Second,
	RetryBudget:         256,
	DialBudget:          256,
	ReconnectBackoff:    2 * time.Millisecond,
	ReconnectMaxBackoff: 25 * time.Millisecond,
}

// TestChaosSoakCoordination is the PR's acceptance test: concurrent
// giftmatch and travel pairs submitted through a server whose connections
// randomly reset, whose dispatch randomly stalls, and whose admission
// control sheds under load — while self-healing clients reconnect and
// retry. The invariant checked at the end, directly against the embedded
// DB, is the paper's: every coordination group is all-or-nothing. A pair
// either booked/pledged on both sides with equal answers, or on neither;
// no observable state ever shows half a group.
func TestChaosSoakCoordination(t *testing.T) {
	pairs, rounds := 5, 3
	if testing.Short() {
		pairs, rounds = 2, 2
	}
	reg := fault.NewRegistry(chaosSeed(t))
	addr, db, srv := startFaultServer(t,
		entangle.Options{RunFrequency: 4},
		Options{Faults: reg, MaxInFlight: 24, PerConnPending: 8})

	admin := dialTest(t, addr)
	if err := admin.ExecDDL(`
		CREATE TABLE Flights (fno INT, fdate DATE, dest VARCHAR);
		CREATE TABLE Bookings (name VARCHAR, fno INT, fdate DATE);
		CREATE TABLE Tiers (cid INT, amount INT);
		CREATE TABLE Pledges (donor VARCHAR, cid INT, amount INT);
	`); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Exec(`
		INSERT INTO Flights VALUES (122, '2011-05-03', 'LA');
		INSERT INTO Flights VALUES (123, '2011-05-04', 'LA');
		INSERT INTO Tiers VALUES (1, 50);
		INSERT INTO Tiers VALUES (1, 100);
	`); err != nil {
		t.Fatal(err)
	}

	// Dial every worker before arming the failpoints so the initial dials
	// (which are fail-fast by design) cannot be casualties; every later
	// reconnect runs under fire.
	clients := make([]*client.Client, pairs*2)
	for i := range clients {
		c, err := client.DialOptions(addr, selfHealing)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}

	reg.Enable("server.conn.write", fault.Trigger{Prob: 0.04}, fault.Action{Kind: fault.KindReset})
	reg.Enable("server.conn.read", fault.Trigger{Prob: 0.02}, fault.Action{Kind: fault.KindReset})
	reg.Enable("server.dispatch", fault.Trigger{Prob: 0.05},
		fault.Action{Kind: fault.KindDelay, Delay: 2 * time.Millisecond})
	defer reg.DisableAll()

	// committed[name] records sides whose Wait reported a clean commit;
	// those MUST have their row. Sides whose Wait lost its outcome to the
	// chaos (retries exhausted) are verified by the atomicity sweep alone.
	var mu sync.Mutex
	committed := map[string]bool{}
	var wg sync.WaitGroup
	for p := 0; p < pairs; p++ {
		for side := 0; side < 2; side++ {
			wg.Add(1)
			go func(p, side int) {
				defer wg.Done()
				c := clients[p*2+side]
				for r := 0; r < rounds; r++ {
					// Classical churn between coordinations keeps frames
					// flowing so the probabilistic failpoints actually bite.
					for i := 0; i < 8; i++ {
						c.Ping()
						c.Query(fmt.Sprintf("SELECT fno FROM Flights WHERE fno=%d", 122+i%2))
					}
					me := fmt.Sprintf("c%d_%d_%d", p, side, r)
					them := fmt.Sprintf("c%d_%d_%d", p, 1-side, r)
					script := soakFlightPair(me, them)
					if r%2 == 1 {
						script = giftPair(me, them)
					}
					h, err := c.SubmitScript(script)
					if err != nil {
						// Submit lost to the chaos; the partner times out
						// cleanly and the atomicity sweep still checks it.
						continue
					}
					if o := h.Wait(); o.Status == entangle.StatusCommitted {
						mu.Lock()
						committed[me] = true
						mu.Unlock()
					}
				}
			}(p, side)
		}
	}
	wg.Wait()
	reg.DisableAll() // quiet network for the verification reads

	// Atomicity sweep straight through the embedded DB — no wire, no
	// client, no place for a stale cache to hide a half-applied group.
	count := func(table, key, name string) int {
		t.Helper()
		res, err := db.Query(fmt.Sprintf("SELECT * FROM %s WHERE %s='%s'", table, key, name))
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Rows)
	}
	commits := 0
	for p := 0; p < pairs; p++ {
		for r := 0; r < rounds; r++ {
			table, col, key := "Bookings", "fno", "name"
			if r%2 == 1 {
				table, col, key = "Pledges", "amount", "donor"
			}
			a := fmt.Sprintf("c%d_0_%d", p, r)
			b := fmt.Sprintf("c%d_1_%d", p, r)
			na, nb := count(table, key, a), count(table, key, b)
			if na > 1 || nb > 1 {
				t.Fatalf("pair %d round %d: duplicate rows (%d/%d) — a retry double-executed", p, r, na, nb)
			}
			if na != nb {
				t.Fatalf("pair %d round %d: group half-applied (%s=%d rows, %s=%d rows)", p, r, a, na, b, nb)
			}
			if committed[a] && na == 0 {
				t.Fatalf("pair %d round %d: %s reported committed but has no row", p, r, a)
			}
			if committed[b] && nb == 0 {
				t.Fatalf("pair %d round %d: %s reported committed but has no row", p, r, b)
			}
			if na == 1 {
				commits++
				ra, _ := db.Query(fmt.Sprintf("SELECT %s FROM %s WHERE %s='%s'", col, table, key, a))
				rb, _ := db.Query(fmt.Sprintf("SELECT %s FROM %s WHERE %s='%s'", col, table, key, b))
				if !ra.Rows[0][0].Equal(rb.Rows[0][0]) {
					t.Fatalf("pair %d round %d: answers not unified: %v vs %v", p, r, ra.Rows[0][0], rb.Rows[0][0])
				}
			}
		}
	}
	if commits == 0 {
		t.Fatal("no pair committed — the soak never exercised the commit path")
	}
	if reg.Fired() == 0 {
		t.Fatal("no fault ever fired — the soak never exercised the failure path")
	}
	stats := srv.StatsSnapshot()
	if stats.FaultsInjected != reg.Fired() {
		t.Fatalf("stats.FaultsInjected = %d, registry fired %d", stats.FaultsInjected, reg.Fired())
	}
	t.Logf("chaos soak: %d/%d groups committed, %d faults, %d sheds, %d server-side replays, %d reconnects",
		commits, pairs*rounds, reg.Fired(), stats.Sheds, stats.Retries, stats.Reconnects)
}

// TestRetryExactlyOnce pins the idempotency contract end to end: the
// server executes an INSERT, the connection resets while the response is
// in flight, and the client transparently reconnects and retries under
// the same idempotency id. The server must replay the recorded response
// instead of re-executing — exactly one row.
func TestRetryExactlyOnce(t *testing.T) {
	reg := fault.NewRegistry(1)
	addr, db, srv := startFaultServer(t, entangle.Options{}, Options{Faults: reg})
	c, err := client.DialOptions(addr, selfHealing)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.ExecDDL(`CREATE TABLE T (id INT, v VARCHAR)`); err != nil {
		t.Fatal(err)
	}

	// The next server write — the INSERT's response — is torn down with a
	// TCP reset after the statement already executed.
	reg.Enable("server.conn.write", fault.Trigger{OneShot: true}, fault.Action{Kind: fault.KindReset})
	if _, err := c.Exec(`INSERT INTO T VALUES (1, 'once')`); err != nil {
		t.Fatalf("exec through reset: %v", err)
	}

	res, err := db.Query(`SELECT id FROM T`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want exactly 1 (retry must not double-insert)", len(res.Rows))
	}
	if c.Reconnects() < 1 || c.Retries() < 1 {
		t.Fatalf("client did not self-heal: reconnects=%d retries=%d", c.Reconnects(), c.Retries())
	}
	if s := srv.StatsSnapshot(); s.Retries < 1 || s.Reconnects < 1 {
		t.Fatalf("server saw no dedup replay: %+v", s)
	}
}

// TestHandleSurvivesReconnect: handles are bound to the client identity,
// not the TCP connection, so a Wait issued after the connection died is
// retried on the healed connection and still collects the outcome.
func TestHandleSurvivesReconnect(t *testing.T) {
	reg := fault.NewRegistry(1)
	addr, _, _ := startFaultServer(t, entangle.Options{RunFrequency: 4}, Options{Faults: reg})
	c, err := client.DialOptions(addr, selfHealing)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	setupFlights(t, c)

	h1, err := c.SubmitScript(flightPair("Chip", "Dale"))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c.SubmitScript(flightPair("Dale", "Chip"))
	if err != nil {
		t.Fatal(err)
	}
	// Kill the connection under the client: the server's next read resets.
	reg.Enable("server.conn.read", fault.Trigger{OneShot: true}, fault.Action{Kind: fault.KindReset})
	c.Ping() // trigger a server read; outcome irrelevant, the reset is the point

	w1 := make(chan client.Outcome, 1)
	go func() { w1 <- h1.Wait() }()
	if o := h2.Wait(); o.Status != entangle.StatusCommitted {
		t.Fatalf("Dale after reconnect: %+v", o)
	}
	if o := <-w1; o.Status != entangle.StatusCommitted {
		t.Fatalf("Chip after reconnect: %+v", o)
	}
	if c.Reconnects() < 1 {
		t.Fatal("connection never died — the test lost its teeth")
	}
}

// TestChaosStaleSessionTypedError pins the typed contract a self-healed
// client sees through a stale interactive session: the old connection's
// sessions rolled back with it, so the server answers the old id with
// ErrCodeUnknownSession — errors.Is(err, wire.ErrUnknownSession) on the
// client — and a freshly opened session works. The shell leans on exactly
// this to reopen its session instead of wedging after a reset.
func TestChaosStaleSessionTypedError(t *testing.T) {
	reg := fault.NewRegistry(1)
	addr, _, _ := startFaultServer(t, entangle.Options{RunFrequency: 1}, Options{Faults: reg})
	c, err := client.DialOptions(addr, selfHealing)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	setupFlights(t, c)

	ses := c.Interactive()
	if _, err := ses.Exec("SELECT fno FROM Flights"); err != nil {
		t.Fatalf("session exec before fault: %v", err)
	}

	reg.Enable("server.conn.read", fault.Trigger{OneShot: true}, fault.Action{Kind: fault.KindReset})
	// Trigger the reset; the retryable pings ride the reconnect. The
	// server's read loop is already parked in a read when the failpoint is
	// armed, so the reset fires on the read after it: ping until the client
	// has reconnected, or the stale exec can go out on the dying connection
	// and fail untyped.
	for pings := 0; c.Reconnects() < 1 && pings < 100; pings++ {
		c.Ping()
	}

	_, err = ses.Exec("SELECT fno FROM Flights")
	if err == nil {
		t.Fatal("stale session survived a connection reset")
	}
	if !errors.Is(err, wire.ErrUnknownSession) {
		t.Fatalf("stale session error not typed: %v", err)
	}
	if c.Reconnects() < 1 {
		t.Fatal("connection never died — the test lost its teeth")
	}
	if _, err := c.Interactive().Exec("SELECT fno FROM Flights"); err != nil {
		t.Fatalf("fresh session after reconnect: %v", err)
	}
}

// TestOverloadShedTypedError pins admission control's wire contract with a
// raw (non-retrying) connection: a request over the in-flight limit gets
// an immediate error response whose code maps to wire.ErrOverloaded via
// errors.Is. Then a self-healing client demonstrates the other half of
// the contract: overload is retryable, so once load drains its call
// succeeds transparently.
func TestOverloadShedTypedError(t *testing.T) {
	addr, _, srv := startFaultServer(t, entangle.Options{RunFrequency: 4}, Options{MaxInFlight: 1})
	admin := dialTest(t, addr)
	setupFlights(t, admin)

	// Occupy the single in-flight slot with a parked Wait on a partnerless
	// pair (2s script timeout bounds the test).
	occ, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer occ.Close()
	script := fmt.Sprintf(`
		BEGIN TRANSACTION WITH TIMEOUT 2 SECONDS;
		SELECT 'Huey', fno AS @f INTO ANSWER R
		WHERE fno IN (SELECT fno FROM Flights WHERE dest='LA')
		AND ('Dewey', fno) IN ANSWER R CHOOSE 1;
		INSERT INTO Bookings VALUES ('Huey', @f, '2011-05-03');
		COMMIT;`)
	if err := wire.WriteFrame(occ, wire.Request{ID: 1, Op: wire.OpSubmit, SQL: script}); err != nil {
		t.Fatal(err)
	}
	var sub wire.Response
	if err := wire.ReadInto(occ, &sub); err != nil || !sub.OK {
		t.Fatalf("submit: %v %+v", err, sub)
	}
	if err := wire.WriteFrame(occ, wire.Request{ID: 2, Op: wire.OpWait, Handle: sub.Handle}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the wait park and hold the slot

	// A second raw connection is over the limit: typed, immediate shed.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := wire.WriteFrame(raw, wire.Request{ID: 1, Op: wire.OpPing}); err != nil {
		t.Fatal(err)
	}
	var shed wire.Response
	if err := wire.ReadInto(raw, &shed); err != nil {
		t.Fatal(err)
	}
	if shed.OK || shed.ErrCode != wire.ErrCodeOverloaded {
		t.Fatalf("want overloaded shed, got %+v", shed)
	}
	if !errors.Is(wire.ErrorForCode(shed.ErrCode, shed.Error), wire.ErrOverloaded) {
		t.Fatal("shed error does not map to wire.ErrOverloaded")
	}

	// The self-healing client retries the shed with backoff until the
	// parked wait times out and frees the slot.
	c, err := client.DialOptions(addr, selfHealing)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping through overload: %v", err)
	}
	if c.Retries() < 1 {
		t.Fatal("overload never retried — the slot was free, test lost its teeth")
	}
	if s := srv.StatsSnapshot(); s.Sheds < 2 {
		t.Fatalf("server sheds = %d, want >= 2", s.Sheds)
	}
}

// TestOverloadShedNeverAfterReply: a request's admission slot is free by
// the time its reply can reach the client. Under MaxInFlight 1, a client
// that reads each reply and at once sends its next request on its other
// connection is never shed. A slot released after the enqueue leaves a
// window of a few instructions; under the race detector (make chaos) 4,000
// round trips reach into it in most runs.
func TestOverloadShedNeverAfterReply(t *testing.T) {
	addr, _, srv := startFaultServer(t, entangle.Options{}, Options{MaxInFlight: 1})
	var conns [2]net.Conn
	for i := range conns {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}
	for i := 0; i < 4000; i++ {
		c := conns[i%2]
		if err := wire.WriteFrame(c, wire.Request{ID: uint64(i + 1), Op: wire.OpPing}); err != nil {
			t.Fatal(err)
		}
		var resp wire.Response
		if err := wire.ReadInto(c, &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.OK {
			t.Fatalf("request %d: %+v", i, resp)
		}
	}
	if s := srv.StatsSnapshot(); s.Sheds != 0 {
		t.Fatalf("server sheds = %d, want 0", s.Sheds)
	}
}

// TestShedRetryReexecutes: a per-connection shed of a parking op must not
// poison the dedup window — the client's retry of the same idempotency id
// has to re-execute, not replay the refusal.
func TestShedRetryReexecutes(t *testing.T) {
	addr, _, _ := startFaultServer(t, entangle.Options{RunFrequency: 4},
		Options{MaxInFlight: 1})
	admin := dialTest(t, addr)
	setupFlights(t, admin)

	c, err := client.DialOptions(addr, selfHealing)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h1, err := c.SubmitScript(flightPair("Launchpad", "Gizmo"))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c.SubmitScript(flightPair("Gizmo", "Launchpad"))
	if err != nil {
		t.Fatal(err)
	}
	// Two concurrent Waits against MaxInFlight=1: one parks, the other is
	// shed and retried under its original idempotency id until the pair
	// commits and both slots clear. Both must land on the real outcome.
	w1 := make(chan client.Outcome, 1)
	go func() { w1 <- h1.Wait() }()
	if o := h2.Wait(); o.Status != entangle.StatusCommitted {
		t.Fatalf("Gizmo: %+v", o)
	}
	if o := <-w1; o.Status != entangle.StatusCommitted {
		t.Fatalf("Launchpad: %+v", o)
	}
}
