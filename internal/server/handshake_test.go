package server

// The handshake: there is one frame format and no negotiation, so a hello
// only binds the client identity, and a peer speaking anything else must
// get a typed error and a closed connection — never a hang.

import (
	"encoding/binary"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/entangle"
	"repro/entangle/client"
	"repro/internal/wire"
)

// TestDialHandshakeThenWorks: a default client against a default server
// says hello, and the connection actually works afterwards.
func TestDialHandshakeThenWorks(t *testing.T) {
	addr, _ := startServer(t, entangle.Options{})
	roundTrip(t, dialTest(t, addr))
}

// framed length-prefixes an arbitrary payload, for peers that do not speak
// the frame format.
func framed(payload string) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	return append(hdr[:], payload...)
}

// TestNonBinaryPeerGetsErrorAndClose: a peer that opens with another
// protocol — a JSON-framed request as the retired v1 protocol sent them,
// or framed bytes that are no protocol at all — gets one error response
// and a closed connection, well inside any dial timeout. Never a hang,
// never a panic.
func TestNonBinaryPeerGetsErrorAndClose(t *testing.T) {
	addr, _ := startServer(t, entangle.Options{})
	cases := []struct {
		name  string
		frame []byte
	}{
		{"JSON-framed hello", framed(`{"id":1,"op":"hello","codec":"binary","client":"abc"}`)},
		{"framed garbage", framed("hello, world")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			start := time.Now()
			nc.SetDeadline(start.Add(5 * time.Second))
			if _, err := nc.Write(tc.frame); err != nil {
				t.Fatal(err)
			}
			var resp wire.Response
			if err := wire.ReadInto(nc, &resp); err != nil {
				t.Fatalf("want an error response before close, got %v", err)
			}
			if resp.OK || !strings.Contains(resp.Error, "bad request") {
				t.Fatalf("response = %+v, want bad-request error", resp)
			}
			// The server gives up on the stream: the next read sees EOF,
			// not silence.
			if _, err := wire.ReadFrame(nc); err != io.EOF {
				t.Fatalf("after error response: got %v, want EOF", err)
			}
			if took := time.Since(start); took > time.Second {
				t.Fatalf("rejection took %v, want well inside the client's dial timeout", took)
			}
		})
	}
}

// TestDialNonBinaryServerFailsFast: the mirror image — a client dialing a
// peer that answers the hello with a JSON document fails the handshake
// with an error instead of hanging or mis-decoding.
func TestDialNonBinaryServerFailsFast(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		if _, err := wire.ReadFrame(nc); err != nil {
			return
		}
		nc.Write(framed(`{"id":1,"ok":false,"error":"unknown op"}`))
	}()
	start := time.Now()
	c, err := client.DialOptions(ln.Addr().String(), client.Options{DialTimeout: 5 * time.Second})
	if err == nil {
		c.Close()
		t.Fatal("dial against a JSON-speaking server succeeded")
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("handshake failure took %v", took)
	}
}

// TestHelloNotFirst: hello anywhere but the first request is refused — by
// then handlers may be running against the connection's anonymous client
// state, and re-binding it under them would race.
func TestHelloNotFirst(t *testing.T) {
	addr, _ := startServer(t, entangle.Options{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(5 * time.Second))

	send := func(req wire.Request) wire.Response {
		t.Helper()
		if err := wire.WriteFrame(nc, req); err != nil {
			t.Fatal(err)
		}
		var resp wire.Response
		if err := wire.ReadInto(nc, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if resp := send(wire.Request{ID: 1, Op: wire.OpPing}); !resp.OK {
		t.Fatalf("ping: %+v", resp)
	}
	resp := send(wire.Request{ID: 2, Op: wire.OpHello, Client: "late"})
	if resp.OK || !strings.Contains(resp.Error, "first request") {
		t.Fatalf("late hello: %+v, want first-request error", resp)
	}
	// The connection survives: a refused hello is an error, not a torn
	// stream.
	if resp := send(wire.Request{ID: 3, Op: wire.OpPing}); !resp.OK {
		t.Fatalf("ping after refused hello: %+v", resp)
	}
}

// roundTrip exercises DDL, classical ops, and a full entangled pair over
// the connection.
func roundTrip(t *testing.T, c *client.Client) {
	t.Helper()
	setupFlights(t, c)
	h1, err := c.SubmitScript(flightPair("alice", "bob"))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c.SubmitScript(flightPair("bob", "alice"))
	if err != nil {
		t.Fatal(err)
	}
	if o := h1.Wait(); o.Status != entangle.StatusCommitted {
		t.Fatalf("h1: %+v", o)
	}
	if o := h2.Wait(); o.Status != entangle.StatusCommitted {
		t.Fatalf("h2: %+v", o)
	}
	res, err := c.Query("SELECT name FROM Bookings")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("bookings: %d rows, want 2", len(res.Rows))
	}
}
