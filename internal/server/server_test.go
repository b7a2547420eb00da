package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/entangle"
	"repro/entangle/client"
	"repro/internal/core"
	"repro/internal/wire"
)

// startServer opens an in-memory DB, serves it on a loopback listener, and
// returns the dial address. Everything is torn down with the test.
func startServer(t *testing.T, opts entangle.Options) (string, *entangle.DB) {
	t.Helper()
	db, err := entangle.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-served; err != nil && !errors.Is(err, ErrServerClosed) {
			t.Errorf("serve: %v", err)
		}
		db.Close()
	})
	return ln.Addr().String(), db
}

func dialTest(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func flightPair(me, them string) string {
	return fmt.Sprintf(`
	BEGIN TRANSACTION WITH TIMEOUT 5 SECONDS;
	SELECT '%s', fno AS @fno, fdate AS @fdate INTO ANSWER FlightRes
	WHERE fno, fdate IN (SELECT fno, fdate FROM Flights WHERE dest='LA')
	AND ('%s', fno, fdate) IN ANSWER FlightRes
	CHOOSE 1;
	INSERT INTO Bookings VALUES ('%s', @fno, @fdate);
	COMMIT;`, me, them, me)
}

func setupFlights(t *testing.T, c *client.Client) {
	t.Helper()
	if err := c.ExecDDL(`
		CREATE TABLE Flights (fno INT, fdate DATE, dest VARCHAR);
		CREATE TABLE Bookings (name VARCHAR, fno INT, fdate DATE);
	`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`
		INSERT INTO Flights VALUES (122, '2011-05-03', 'LA');
		INSERT INTO Flights VALUES (123, '2011-05-04', 'LA');
		INSERT INTO Flights VALUES (235, '2011-05-05', 'Paris');
	`); err != nil {
		t.Fatal(err)
	}
}

// The acceptance scenario: two clients on separate TCP connections each
// submit one half of an entangled pair; both commit and both observe the
// same unified answer.
func TestRemotePairCoordinatesAcrossConnections(t *testing.T) {
	addr, _ := startServer(t, entangle.Options{RunFrequency: 2})
	mickey := dialTest(t, addr)
	minnie := dialTest(t, addr)
	setupFlights(t, mickey)

	h1, err := mickey.SubmitScript(flightPair("Mickey", "Minnie"))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := minnie.SubmitScript(flightPair("Minnie", "Mickey"))
	if err != nil {
		t.Fatal(err)
	}
	if o := h1.Wait(); o.Status != entangle.StatusCommitted {
		t.Fatalf("Mickey: %+v", o)
	}
	if o := h2.Wait(); o.Status != entangle.StatusCommitted {
		t.Fatalf("Minnie: %+v", o)
	}

	// Both sides read the unified answer back over their own connections.
	resM, err := mickey.Query("SELECT fno FROM Bookings WHERE name='Mickey'")
	if err != nil {
		t.Fatal(err)
	}
	resN, err := minnie.Query("SELECT fno FROM Bookings WHERE name='Minnie'")
	if err != nil {
		t.Fatal(err)
	}
	if len(resM.Rows) != 1 || len(resN.Rows) != 1 {
		t.Fatalf("bookings: %v / %v", resM.Rows, resN.Rows)
	}
	if !resM.Rows[0][0].Equal(resN.Rows[0][0]) {
		t.Fatalf("answers not unified: %v vs %v", resM.Rows[0][0], resN.Rows[0][0])
	}

	// The coordination shows up in the counters as one entanglement op and
	// one group commit.
	snap, err := minnie.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.GroupCommits < 1 || snap.EntangleOps < 1 {
		t.Fatalf("stats: %+v", snap)
	}
}

// Wait behaves like the embedded API for failures too: a partnerless
// transaction times out, and errors.Is(core.ErrTimeout) holds across the
// wire.
func TestRemoteTimeoutMapsSentinelError(t *testing.T) {
	addr, _ := startServer(t, entangle.Options{RunFrequency: 2})
	c := dialTest(t, addr)
	setupFlights(t, c)
	h, err := c.SubmitScript(flightPair("Donald", "Daffy"))
	if err != nil {
		t.Fatal(err)
	}
	// Cut the 5s script timeout down via a poll loop: the outcome must be
	// reported eventually and identically via Poll and Wait.
	var o client.Outcome
	for {
		var done bool
		if o, done = h.Poll(); done {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if o.Status != entangle.StatusTimedOut || !errors.Is(o.Err, core.ErrTimeout) {
		t.Fatalf("outcome: %+v", o)
	}
	if o2 := h.Wait(); o2.Status != o.Status {
		t.Fatalf("wait after poll: %+v vs %+v", o2, o)
	}
}

// Interactive sessions work remotely: a transaction block sees its own
// writes, a rollback undoes them, and host variables persist.
func TestRemoteInteractiveSession(t *testing.T) {
	addr, _ := startServer(t, entangle.Options{})
	c := dialTest(t, addr)
	setupFlights(t, c)

	s := c.Interactive()
	defer s.Close()
	if _, err := s.Exec("BEGIN TRANSACTION"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO Bookings VALUES ('Goofy', 99, '2011-06-01')"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec("SELECT name FROM Bookings WHERE name='Goofy'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("own write invisible: %v", res.Rows)
	}
	if _, err := s.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	res, err = c.Query("SELECT name FROM Bookings WHERE name='Goofy'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("rollback did not undo: %v", res.Rows)
	}

	// Host variables persist across statements of the session.
	if _, err := s.Exec("SET @fav = 122"); err != nil {
		t.Fatal(err)
	}
	res, err = s.Exec("SELECT fno FROM Flights WHERE fno=@fav")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("host variable lost: %v", res.Rows)
	}
}

// Catalog and error surfaces: tables frame, unknown ops, bad handles, and
// entangled queries rejected outside SubmitScript.
func TestRemoteSurfaceErrors(t *testing.T) {
	addr, _ := startServer(t, entangle.Options{})
	c := dialTest(t, addr)
	setupFlights(t, c)

	tables, err := c.Tables()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables[0].Name != "Bookings" || tables[1].Rows != 3 {
		t.Fatalf("tables: %+v", tables)
	}

	if _, err := c.Exec("SELECT 'A', fno INTO ANSWER R WHERE fno IN (SELECT fno FROM Flights) CHOOSE 1"); err == nil {
		t.Fatal("entangled exec should be rejected")
	}
	if _, err := c.Exec("SELEKT nonsense"); err == nil {
		t.Fatal("parse error should surface")
	}
	if _, err := c.SubmitScript("ALSO NOT SQL"); err == nil {
		t.Fatal("submit parse error should surface")
	}
}

// A raw connection speaking garbage must get a clean close, and pipelined
// valid frames with out-of-order completion must correlate by ID.
func TestServerRejectsGarbageStream(t *testing.T) {
	addr, _ := startServer(t, entangle.Options{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// A frame whose payload is not a request: server answers with an error
	// frame, then closes. Framed by hand since WriteFrame validates.
	payload := []byte("this is not a request")
	hdr := []byte{0, 0, 0, byte(len(payload))}
	if _, err := nc.Write(append(hdr, payload...)); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := wire.ReadInto(nc, &resp); err != nil {
		t.Fatalf("expected error response, got %v", err)
	}
	if resp.OK || resp.Error == "" {
		t.Fatalf("resp: %+v", resp)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := wire.ReadFrame(nc); err == nil {
		t.Fatal("expected connection close after garbage")
	}
}

// A response too large for one frame must come back as an error response,
// not a silently dropped reply that leaves the client hanging.
func TestRemoteOversizedResponseErrors(t *testing.T) {
	addr, _ := startServer(t, entangle.Options{})
	c := dialTest(t, addr)
	if err := c.ExecDDL(`CREATE TABLE Blobs (id INT, data VARCHAR)`); err != nil {
		t.Fatal(err)
	}
	// ~10 MiB across rows; each INSERT stays under MaxFrameSize but the
	// full SELECT response does not.
	chunk := strings.Repeat("x", 1<<20)
	for i := 0; i < 10; i++ {
		if _, err := c.Exec(fmt.Sprintf("INSERT INTO Blobs VALUES (%d, '%s')", i, chunk)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Query("SELECT id, data FROM Blobs")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "could not be encoded") {
			t.Fatalf("expected encode error, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("oversized query hung instead of erroring")
	}
	// The connection survives an unencodable response.
	if err := c.Ping(); err != nil {
		t.Fatalf("connection dead after oversized response: %v", err)
	}
}

// The serve binary's SIGTERM sequence: a client parked in Wait on a
// partnerless transaction is settled by the concurrent engine drain, so
// the network drain finishes well before the 60s script timeout.
func TestShutdownSettlesParkedPartnerlessWait(t *testing.T) {
	db, err := entangle.Open(entangle.Options{RunFrequency: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := New(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.ExecDDL(`CREATE TABLE Flights (fno INT, fdate DATE, dest VARCHAR); CREATE TABLE Bookings (name VARCHAR, fno INT, fdate DATE)`); err != nil {
		t.Fatal(err)
	}
	long := strings.Replace(flightPair("Donald", "Daffy"), "TIMEOUT 5 SECONDS", "TIMEOUT 60 SECONDS", 1)
	h, err := c.SubmitScript(long)
	if err != nil {
		t.Fatal(err)
	}
	parked := make(chan client.Outcome, 1)
	go func() { parked <- h.Wait() }()
	time.Sleep(50 * time.Millisecond) // let the wait frame park server-side

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	start := time.Now()
	drained := make(chan error, 1)
	go func() { drained <- db.Drain(ctx) }()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("network drain: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("engine drain: %v", err)
	}
	o := <-parked
	if o.Status != entangle.StatusTimedOut || !errors.Is(o.Err, core.ErrDraining) {
		t.Fatalf("parked wait: %+v", o)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("drain took %v; parked wait should settle well before the 60s script timeout", elapsed)
	}
}

// Shutdown drains in-flight requests: a submitted pair completes and its
// waits are answered even though shutdown starts first.
func TestShutdownDrainsInflightWaits(t *testing.T) {
	db, err := entangle.Open(entangle.Options{RunFrequency: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := New(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	c1, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c1.ExecDDL(`CREATE TABLE Flights (fno INT, fdate DATE, dest VARCHAR); CREATE TABLE Bookings (name VARCHAR, fno INT, fdate DATE)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec(`INSERT INTO Flights VALUES (122, '2011-05-03', 'LA')`); err != nil {
		t.Fatal(err)
	}

	h1, err := c1.SubmitScript(flightPair("Mickey", "Minnie"))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c2.SubmitScript(flightPair("Minnie", "Mickey"))
	if err != nil {
		t.Fatal(err)
	}
	// Park the waits, then shut down: both must be answered before the
	// connections die.
	type res struct{ o client.Outcome }
	r1 := make(chan res, 1)
	r2 := make(chan res, 1)
	go func() { r1 <- res{h1.Wait()} }()
	go func() { r2 <- res{h2.Wait()} }()
	time.Sleep(50 * time.Millisecond) // let the wait frames reach the server

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-served; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("serve: %v", err)
	}
	if o := (<-r1).o; o.Status != entangle.StatusCommitted {
		t.Fatalf("Mickey through shutdown: %+v", o)
	}
	if o := (<-r2).o; o.Status != entangle.StatusCommitted {
		t.Fatalf("Minnie through shutdown: %+v", o)
	}
	// And the DB drains cleanly afterwards, per the serve binary's path.
	if err := db.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
