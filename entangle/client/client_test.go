package client

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/shard"
	"repro/internal/wire"
)

// fakeServer speaks just enough protocol to handshake, then hands each
// connection to serve. It lets client-side behavior be tested without the
// real server (which lives above this package).
func fakeServer(t *testing.T, serve func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				var req wire.Request
				if wire.ReadInto(nc, &req) != nil || req.Op != wire.OpHello {
					return
				}
				wire.WriteFrame(nc, wire.Response{ID: req.ID, OK: true, Version: wire.ProtocolVersion})
				serve(nc)
			}(nc)
		}
	}()
	return ln.Addr().String()
}

// tight budgets so exhaustion tests finish in milliseconds.
var tight = Options{
	RetryBudget:         3,
	DialBudget:          2,
	ReconnectBackoff:    time.Millisecond,
	ReconnectMaxBackoff: 2 * time.Millisecond,
}

// TestRetriesExhaustedTyped: a server that handshakes but kills every
// connection at the first real request forces the retry loop to its
// budget. The resulting error must expose both sentinels — the budget
// (ErrRetriesExhausted) and the cause (ErrClosed) — through errors.Is.
func TestRetriesExhaustedTyped(t *testing.T) {
	addr := fakeServer(t, func(nc net.Conn) {
		wire.ReadFrame(nc) // swallow one request, then the deferred Close resets it
	})
	c, err := DialOptions(addr, tight)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Exec("INSERT INTO T VALUES (1)")
	if err == nil {
		t.Fatal("exec against conn-killing server succeeded")
	}
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want the ErrClosed cause to unwrap", err)
	}
}

// TestOverloadRetriesExhausted: a server that sheds every request drains
// the retry budget too, and the exhausted error unwraps to
// wire.ErrOverloaded so callers can tell shed-exhaustion from a dead
// connection.
func TestOverloadRetriesExhausted(t *testing.T) {
	addr := fakeServer(t, func(nc net.Conn) {
		for {
			var req wire.Request
			if wire.ReadInto(nc, &req) != nil {
				return
			}
			wire.WriteFrame(nc, wire.Response{
				ID: req.ID, ErrCode: wire.ErrCodeOverloaded, Error: wire.ErrOverloaded.Error(),
			})
		}
	})
	c, err := DialOptions(addr, tight)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); !errors.Is(err, ErrRetriesExhausted) || !errors.Is(err, wire.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrRetriesExhausted wrapping wire.ErrOverloaded", err)
	}
	if c.Retries() < int64(tight.RetryBudget) {
		t.Fatalf("retries = %d, want the full budget %d spent", c.Retries(), tight.RetryBudget)
	}
}

// TestNonIdempotentOpsFailOverReconnect: a session Exec is connection-
// scoped, so losing the connection mid-call must surface ErrClosed rather
// than silently retrying against a fresh session.
func TestNonIdempotentOpsFailOverReconnect(t *testing.T) {
	addr := fakeServer(t, func(nc net.Conn) {
		for {
			var req wire.Request
			if wire.ReadInto(nc, &req) != nil {
				return
			}
			if req.Op == wire.OpSessionOpen {
				wire.WriteFrame(nc, wire.Response{ID: req.ID, OK: true, Session: 7})
				continue
			}
			return // any session exec: kill the connection, response lost
		}
	})
	c, err := DialOptions(addr, tight)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.Interactive()
	_, err = s.Exec("SELECT 1")
	if err == nil || errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("session exec over dead conn = %v, want plain connection error, no retry", err)
	}
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestClosedClientFailsFast: calls after Close return ErrClosed without
// dialing anything.
func TestClosedClientFailsFast(t *testing.T) {
	addr := fakeServer(t, func(nc net.Conn) {
		for {
			var req wire.Request
			if wire.ReadInto(nc, &req) != nil {
				return
			}
			wire.WriteFrame(nc, wire.Response{ID: req.ID, OK: true, Version: wire.ProtocolVersion})
		}
	})
	c, err := DialOptions(addr, tight)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); !errors.Is(err, ErrClosed) {
		t.Fatalf("ping after close = %v, want ErrClosed", err)
	}
	if c.Healthy() {
		t.Fatal("closed client reports healthy")
	}
}

// TestPoolGetSkipsDead pins the Pool routing fix: round-robin must route
// around clients whose connection is down, and fall back to plain
// round-robin only when every client is down.
func TestPoolGetSkipsDead(t *testing.T) {
	alive1 := &Client{cc: &conn{}}
	dead := &Client{} // no live conn
	alive2 := &Client{cc: &conn{}}
	p := &Pool{conns: []*Client{alive1, dead, alive2}}

	seen := map[*Client]int{}
	for i := 0; i < 90; i++ {
		seen[p.Get()]++
	}
	if seen[dead] != 0 {
		t.Fatalf("dead client handed out %d times", seen[dead])
	}
	if seen[alive1] == 0 || seen[alive2] == 0 {
		t.Fatalf("healthy clients unevenly skipped: %v %v", seen[alive1], seen[alive2])
	}

	// Full outage: Get must still return something (whose call will then
	// block on that client's reconnect) rather than spin or panic.
	down := &Pool{conns: []*Client{{}, {closed: true}}}
	if down.Get() == nil {
		t.Fatal("Get returned nil during full outage")
	}

	// Sharded affinity: GetShard must keep preferring the HOME shard's
	// connection when it is healthy, even while an unrelated mid-list
	// client is down — a dead shard 1 must not perturb routing to shards
	// 0 and 2 (the round-robin fallback would).
	for i := 0; i < 30; i++ {
		if got := p.GetShard(0); got != alive1 {
			t.Fatalf("GetShard(0) = %p, want home conn %p despite dead shard 1", got, alive1)
		}
		if got := p.GetShard(2); got != alive2 {
			t.Fatalf("GetShard(2) = %p, want home conn %p despite dead shard 1", got, alive2)
		}
	}
	// The dead home shard falls back to a healthy connection rather than
	// handing out a down client.
	for i := 0; i < 30; i++ {
		if got := p.GetShard(1); got == dead {
			t.Fatal("GetShard(1) handed out the dead home client")
		}
	}
}

// TestPoolRouteHomeShard pins routing: a sharded pool sends a script to
// the connection owning its routing key's shard.
func TestPoolRouteHomeShard(t *testing.T) {
	a, b := &Client{cc: &conn{}}, &Client{cc: &conn{}}
	m := &shard.Map{Version: 1, Shards: 2, Nodes: []string{"a", "b"},
		Overrides: map[string]int{"Mickey": 0, "Minnie": 1}}
	p := &Pool{conns: []*Client{a, b}, placement: m}
	if got := p.Route("SELECT * FROM Flights WHERE who = 'Mickey'"); got != a {
		t.Fatal("Mickey routed off shard 0")
	}
	if got := p.Route("SELECT * FROM Flights WHERE who = 'Minnie'"); got != b {
		t.Fatal("Minnie routed off shard 1")
	}
}
