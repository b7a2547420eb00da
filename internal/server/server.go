// Package server is the network service layer: it exposes an
// *entangle.DB over TCP using the length-prefixed frame protocol of
// internal/wire, so separate OS processes — separate users — can pose
// coordinating entangled queries against one engine. This is the paper's
// Figure 1 deployment shape: clients connect to a service, and the service
// unifies their answers.
//
// One TCP connection is one client. Requests on a connection execute
// concurrently (a parked OpWait does not block an OpExec that follows it);
// responses are correlated by request ID. Interactive sessions are
// connection-scoped — open transactions roll back when the connection dies.
// Submitted-program handles are scoped to the client *identity* (the Client
// id carried on hello): a client that reconnects after a network fault
// finds its handles again and can still Wait on programs it submitted, and
// programs keep running across the disconnect (a disconnect must not undo
// a coordination that partners already depend on). Connections that never
// identify themselves get private, connection-scoped state.
//
// Retries are made exactly-once by a per-client dedup window: requests may
// carry a client-assigned idempotency id, and the server remembers the
// response of each of its last dedupWindow completed idempotent requests.
// A retry of an already-executed request — typically after the response
// was lost to a connection reset — replays the recorded response instead
// of re-executing.
//
// The server sheds load instead of queueing without bound: a global
// max-in-flight gate and a per-connection pending cap answer excess
// requests with wire.ErrOverloaded (err_code "overloaded"), which clients
// treat as retryable-with-backoff since a shed request was never dispatched.
//
// Every connection speaks the one binary frame format of internal/wire from
// its first byte; a peer speaking anything else gets one "bad request"
// response and a closed connection. Response frames are write-batched per
// connection: handlers enqueue encoded
// frames into one output buffer and a single flusher goroutine writes
// whatever has accumulated in one syscall, so a pipelining client costs
// one write per batch instead of one per response.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/entangle"
	"repro/internal/fault"
	"repro/internal/wire"
)

// Options configures a Server. The zero value selects every default, so
// NewWithOptions(db, Options{}) == New(db).
type Options struct {
	// MaxInFlight caps requests executing across all connections; excess
	// requests are shed with wire.ErrOverloaded. Default 1024; negative
	// disables the gate.
	MaxInFlight int
	// PerConnPending caps parked requests (OpWait/OpSessionExec) per
	// connection. Beyond it the connection sheds instead of blocking its
	// read loop. Default 64.
	PerConnPending int
	// Faults, when set, arms the server's failpoints: "server.accept"
	// (accepted connections are dropped), "server.dispatch" (requests fail
	// or stall at dispatch), and "server.conn.read"/"server.conn.write"
	// (accepted conns are wrapped with fault.Conn — resets, delays, short
	// writes at frame boundaries). Nil — the default — is zero-overhead.
	Faults *fault.Registry
}

func (o Options) withDefaults() Options {
	if o.MaxInFlight == 0 {
		o.MaxInFlight = 1024
	}
	if o.PerConnPending <= 0 {
		o.PerConnPending = 64
	}
	return o
}

// Connection and client-identity bounds:
//   - writeTimeout bounds one batched response write: a client that stops
//     reading its socket eventually fills the TCP send buffer, and without a
//     deadline the blocked flusher would buffer responses forever;
//   - closeFlushTimeout bounds the final drain of buffered responses during
//     connection teardown, so Shutdown is not held hostage by a peer that
//     stopped reading;
//   - dedupWindow is how many completed idempotent responses are retained
//     per client identity for retry replay;
//   - clientTTL is how long a disconnected client identity's state (handles,
//     dedup window) is retained awaiting a reconnect.
const (
	writeTimeout      = 30 * time.Second
	closeFlushTimeout = 2 * time.Second
	dedupWindow       = 256
	clientTTL         = 5 * time.Minute
)

// Server serves one DB over any number of listeners.
type Server struct {
	db   *entangle.DB
	opts Options

	// dist is non-nil once EnableSharding makes this server a member of a
	// sharded deployment (see dist.go). Written before Serve, read-only
	// after.
	dist *distState

	mu      sync.Mutex
	lns     map[net.Listener]struct{}
	conns   map[*conn]struct{}
	clients map[string]*clientState
	closed  bool

	connWg sync.WaitGroup // connection read loops
	reqWg  sync.WaitGroup // in-flight requests (drained by Shutdown)

	inflight   atomic.Int64 // requests executing now (global admission gate)
	sheds      atomic.Int64
	retries    atomic.Int64
	reconnects atomic.Int64

	// Failpoints (nil without Options.Faults; see internal/fault).
	ptAccept   *fault.Point
	ptDispatch *fault.Point
	ptConnR    *fault.Point
	ptConnW    *fault.Point
}

// New wraps a DB with default options. The caller keeps ownership of the
// DB: Shutdown quiesces the network side only, so the usual db.Drain +
// db.Close still follow.
func New(db *entangle.DB) *Server { return NewWithOptions(db, Options{}) }

// NewWithOptions wraps a DB with explicit service options.
func NewWithOptions(db *entangle.DB, opts Options) *Server {
	s := &Server{
		db:      db,
		opts:    opts.withDefaults(),
		lns:     make(map[net.Listener]struct{}),
		conns:   make(map[*conn]struct{}),
		clients: make(map[string]*clientState),
	}
	if f := s.opts.Faults; f != nil {
		s.ptAccept = f.Point("server.accept")
		s.ptDispatch = f.Point("server.dispatch")
		s.ptConnR = f.Point("server.conn.read")
		s.ptConnW = f.Point("server.conn.write")
	}
	return s
}

// ErrServerClosed is returned by Serve and ListenAndServe after Shutdown.
var ErrServerClosed = errors.New("server: closed")

// ListenAndServe listens on addr (e.g. "127.0.0.1:7171") and serves until
// Shutdown. Like http.ListenAndServe it blocks; run it on its own
// goroutine.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// StatsSnapshot returns the engine counters with the service-layer ones
// filled in: requests shed by admission control, idempotent retries
// answered from the dedup window, hellos that re-bound an existing client
// identity, and faults fired by the configured registry.
func (s *Server) StatsSnapshot() entangle.StatsSnapshot {
	snap := s.db.StatsSnapshot()
	snap.Sheds = s.sheds.Load()
	snap.Retries = s.retries.Load()
	snap.Reconnects = s.reconnects.Load()
	snap.FaultsInjected = s.opts.Faults.Fired()
	return snap
}

// Serve accepts connections on ln until Shutdown (or a fatal accept
// error). The listener is closed when Serve returns.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.lns, ln)
		s.mu.Unlock()
		ln.Close()
	}()

	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		if err := s.ptAccept.Fire(); err != nil {
			// Injected accept failure: the client sees the conn die
			// immediately and redials.
			nc.Close()
			continue
		}
		if s.opts.Faults != nil {
			nc = fault.WrapConn(nc, s.ptConnR, s.ptConnW)
		}
		c := &conn{
			srv:         s,
			nc:          nc,
			br:          bufio.NewReaderSize(nc, readBufSize),
			cs:          newClientState(""),
			sessions:    make(map[uint64]*session),
			slots:       make(chan struct{}, s.opts.PerConnPending),
			flusherDone: make(chan struct{}),
		}
		c.outCond = sync.NewCond(&c.outMu)
		go c.flusher()
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.connWg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.connWg.Done()
			c.serve()
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}()
	}
}

// Shutdown drains the network side: listeners close (no new connections),
// connections stop reading new requests, in-flight requests finish (bounded
// by ctx), then every connection is torn down — open interactive
// transactions roll back. Returns ctx.Err() when in-flight work was cut
// off. The DB itself is untouched; follow with db.Drain and db.Close.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	lns := make([]net.Listener, 0, len(s.lns))
	for ln := range s.lns {
		lns = append(lns, ln)
	}
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	for _, ln := range lns {
		ln.Close()
	}
	// Stop intake without killing the write side: expire reads so each
	// connection's read loop exits, leaving in-flight handlers free to
	// respond.
	for _, c := range conns {
		c.nc.SetReadDeadline(time.Now())
	}

	done := make(chan struct{})
	go func() {
		s.reqWg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}

	// Teardown runs per-connection concurrently: close drains each
	// connection's buffered responses (bounded by closeFlushTimeout), and
	// one stuck peer must not serialize behind another.
	var closeWg sync.WaitGroup
	for _, c := range conns {
		closeWg.Add(1)
		go func(c *conn) {
			defer closeWg.Done()
			c.close()
		}(c)
	}
	closeWg.Wait()
	s.connWg.Wait()
	return err
}

// Addrs returns the listen addresses (useful with ":0" test listeners).
func (s *Server) Addrs() []net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []net.Addr
	for ln := range s.lns {
		out = append(out, ln.Addr())
	}
	return out
}

// readBufSize is the per-connection buffered-reader size: big enough that
// a pipelined batch of requests costs one read syscall, small enough to be
// irrelevant against MaxFrameSize.
const readBufSize = 64 << 10

// dedupEntry is one idempotent request's lifecycle in a client's dedup
// window: done closes when the owning execution finished, after which resp
// (sans request ID, which the replayer rewrites) is the recorded answer.
type dedupEntry struct {
	done chan struct{}
	resp wire.Response
}

// waiter is the handle shape the server parks Waits on: the embedded
// engine's handle for local submissions, the remote client's handle for
// submissions forwarded to their routing key's home shard. Both report
// the same Outcome type, so the Wait/Poll handlers cannot tell them
// apart — which is the point.
type waiter interface {
	Wait() entangle.Outcome
	Poll() (entangle.Outcome, bool)
}

// clientState is the per-client-identity state: submitted-program handles
// and the idempotency dedup window. Named states (bound by hello) live in
// Server.clients and survive reconnects until clientTTL; anonymous
// connections get a private state with identical mechanics but
// connection-scoped life.
type clientState struct {
	id string

	mu         sync.Mutex
	refs       int       // bound connections
	idleSince  time.Time // valid while refs == 0
	nextHandle uint64
	handles    map[uint64]waiter
	dedup      map[uint64]*dedupEntry
	order      []uint64 // completed idem ids, oldest first (window pruning)
}

func newClientState(id string) *clientState {
	return &clientState{
		id:      id,
		handles: make(map[uint64]waiter),
		dedup:   make(map[uint64]*dedupEntry),
	}
}

// begin claims idempotency id idem. owner=true means the caller must
// execute the request and finish (or abort) the entry; owner=false means
// another execution owns it — wait on entry.done and replay entry.resp.
func (cs *clientState) begin(idem uint64) (entry *dedupEntry, owner bool) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if e := cs.dedup[idem]; e != nil {
		return e, false
	}
	e := &dedupEntry{done: make(chan struct{})}
	cs.dedup[idem] = e
	return e, true
}

// finish records the owner's response and prunes the window to dedupWindow.
// Callers must finish before enqueueing the response: a retry that arrives
// after the peer saw (or lost) the response must always find the record.
func (cs *clientState) finish(idem uint64, resp wire.Response) {
	cs.mu.Lock()
	e := cs.dedup[idem]
	if e == nil { // aborted concurrently; nothing to record
		cs.mu.Unlock()
		return
	}
	e.resp = resp
	cs.order = append(cs.order, idem)
	for len(cs.order) > dedupWindow {
		evict := cs.order[0]
		cs.order = cs.order[1:]
		delete(cs.dedup, evict)
	}
	cs.mu.Unlock()
	close(e.done)
}

// abort removes an entry whose request never executed (shed by admission
// control): current waiters get resp, but the id is forgotten so a retry
// re-executes instead of replaying the refusal.
func (cs *clientState) abort(idem uint64, resp wire.Response) {
	cs.mu.Lock()
	e := cs.dedup[idem]
	delete(cs.dedup, idem)
	cs.mu.Unlock()
	if e != nil {
		e.resp = resp
		close(e.done)
	}
}

func (cs *clientState) putHandle(h waiter) uint64 {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.nextHandle++
	cs.handles[cs.nextHandle] = h
	return cs.nextHandle
}

func (cs *clientState) handle(id uint64) (waiter, error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if h := cs.handles[id]; h != nil {
		return h, nil
	}
	return nil, fmt.Errorf("unknown handle %d", id)
}

func (cs *clientState) dropHandle(id uint64) {
	cs.mu.Lock()
	delete(cs.handles, id)
	cs.mu.Unlock()
}

// bindClient attaches a connection to the named client identity, creating
// or reviving its state. Re-binding an identity that already existed is a
// reconnect. Idle states past clientTTL are pruned here — binds are rare,
// so the scan is free on the hot path.
func (s *Server) bindClient(c *conn, id string) {
	now := time.Now()
	s.mu.Lock()
	for cid, cs := range s.clients {
		cs.mu.Lock()
		expired := cs.refs == 0 && now.Sub(cs.idleSince) > clientTTL
		cs.mu.Unlock()
		if expired {
			delete(s.clients, cid)
		}
	}
	cs := s.clients[id]
	known := cs != nil
	if !known {
		cs = newClientState(id)
		s.clients[id] = cs
	}
	s.mu.Unlock()
	cs.mu.Lock()
	cs.refs++
	cs.mu.Unlock()
	if known {
		s.reconnects.Add(1)
	}
	c.cs = cs
}

// unbindClient releases a connection's claim on a named identity; the
// state lingers for clientTTL awaiting a reconnect.
func (s *Server) unbindClient(cs *clientState) {
	if cs == nil || cs.id == "" {
		return
	}
	cs.mu.Lock()
	cs.refs--
	if cs.refs == 0 {
		cs.idleSince = time.Now()
	}
	cs.mu.Unlock()
}

// session wraps an interactive session with its serializing lock:
// InteractiveSession is statement-at-a-time and not safe for concurrent
// use, but nothing stops a client from pipelining two session_exec frames.
type session struct {
	mu sync.Mutex
	is *entangle.InteractiveSession
}

// conn is one client connection.
type conn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader

	// cs is the client state this connection acts for: a private
	// connection-scoped state until a hello carrying a Client id binds a
	// durable one. Written only by the read loop (before any concurrent
	// handler exists — binding happens on the first request).
	cs *clientState

	inflight sync.WaitGroup // requests dispatched on this connection
	slots    chan struct{}  // per-connection parked-request cap

	// Write batching: handlers encode their response into outBuf under
	// outMu; the flusher goroutine swaps the buffer out and writes it in
	// one syscall.
	outMu       sync.Mutex
	outCond     *sync.Cond
	outBuf      []byte
	outSpare    []byte // recycled flushed buffer
	outClosed   bool   // no further enqueues; flusher drains and exits
	outBroken   bool   // write failed or encode substitution failed
	flusherDone chan struct{}

	mu          sync.Mutex
	sessions    map[uint64]*session
	nextSession uint64
	closed      bool
}

// serve is the connection read loop: decode a frame, dispatch the
// request, and keep reading. Requests that cannot park — everything but
// OpWait and OpSessionExec — execute inline on the read loop's stack:
// pipelined classical ops then cost no goroutine spawn (whose fresh stack
// would re-grow through the parser and executor on every request) and
// recycle one read buffer for the life of the connection. Ops that can
// block indefinitely get their own goroutine, so a parked Wait never
// wedges the connection: its partner's submit may arrive on this very
// socket, behind it in the pipeline. Any framing error ends the
// connection — after a torn frame the stream cannot be trusted.
//
// The socket must outlive the read loop: during Shutdown the loop exits
// via read deadline while handlers (a parked Wait whose outcome the
// engine drain is about to settle) still owe responses, so close waits
// for them. Every program has a timeout, so the handlers — and therefore
// the teardown of a genuinely dead connection — are bounded.
func (c *conn) serve() {
	defer func() {
		c.inflight.Wait()
		c.close()
	}()
	first := true
	gated := c.srv.opts.MaxInFlight > 0
	var rbuf []byte // recycled frame payload; decode copies what it keeps
	for {
		payload, err := wire.ReadFrameBuf(c.br, rbuf)
		if err != nil {
			return
		}
		if cap(payload) > cap(rbuf) {
			rbuf = payload[:0]
		}
		var req wire.Request
		if err := wire.Binary.DecodeRequest(payload, &req); err != nil {
			// The frame was well-formed but the payload was not: report
			// once (a typed error, not a hang), then give up on the stream.
			// A peer speaking another protocol lands here — the '{' of a
			// JSON document is not an opcode.
			c.enqueue(wire.Response{Error: fmt.Sprintf("bad request: %v", err)})
			return
		}
		if req.Op == wire.OpHello {
			c.hello(req, first)
			first = false
			continue
		}
		first = false

		// Global admission gate: when the server is already executing
		// MaxInFlight requests, shed — a typed, retryable refusal — rather
		// than queue unboundedly. Shed before dedup-begin, so a shed
		// request leaves no record and its retry executes normally.
		if gated && c.srv.inflight.Add(1) > int64(c.srv.opts.MaxInFlight) {
			c.srv.inflight.Add(-1)
			c.srv.sheds.Add(1)
			c.enqueue(fail(req.ID, wire.ErrOverloaded))
			continue
		}
		// Register the request under the server lock so it cannot race
		// Shutdown's reqWg.Wait (Add at counter zero concurrent with Wait is
		// undefined): either the request is registered before closed is set
		// and Shutdown waits for it, or it is refused.
		c.srv.mu.Lock()
		if c.srv.closed {
			c.srv.mu.Unlock()
			if gated {
				c.srv.inflight.Add(-1)
			}
			c.enqueue(fail(req.ID, errors.New("server shutting down")))
			return
		}
		c.srv.reqWg.Add(1)
		c.inflight.Add(1)
		c.srv.mu.Unlock()

		// Idempotency dedup: a request carrying an idem id executes at
		// most once per client identity. Losers of the race replay the
		// owner's recorded response.
		var entry *dedupEntry
		if req.Idem != 0 {
			var owner bool
			entry, owner = c.cs.begin(req.Idem)
			if !owner {
				c.srv.retries.Add(1)
				select {
				case <-entry.done:
					// Completed: replay inline, under the retry's own ID.
					resp := entry.resp
					resp.ID = req.ID
					c.release(gated)
					c.enqueue(resp)
					c.done()
				default:
					// Still executing (the original, on a conn the client
					// may have abandoned): park a replayer. The owner always
					// finishes — handlers return exactly one response — so
					// this cannot leak.
					go func(id uint64, entry *dedupEntry) {
						<-entry.done
						resp := entry.resp
						resp.ID = id
						c.release(gated)
						c.enqueue(resp)
						c.done()
					}(req.ID, entry)
				}
				continue
			}
		}

		if req.Op != wire.OpWait && req.Op != wire.OpSessionExec {
			resp := c.dispatch(req)
			c.release(gated)
			c.finishAndEnqueue(req, entry, resp)
			c.done()
			continue
		}
		// Parked ops are capped per connection: beyond PerConnPending the
		// connection sheds instead of blocking its read loop behind its
		// own pipeline.
		select {
		case c.slots <- struct{}{}:
		default:
			c.srv.sheds.Add(1)
			shed := fail(req.ID, wire.ErrOverloaded)
			if entry != nil {
				c.cs.abort(req.Idem, shed)
			}
			c.release(gated)
			c.enqueue(shed)
			c.done()
			continue
		}
		go func(req wire.Request, entry *dedupEntry) {
			resp := c.dispatch(req)
			<-c.slots
			c.release(gated)
			c.finishAndEnqueue(req, entry, resp)
			c.done()
		}(req, entry)
	}
}

// release gives back one request's admission slot. It runs before the reply
// is enqueued: a client that reads the reply and at once sends its next
// request, on any connection, must find the slot free.
func (c *conn) release(gated bool) {
	if gated {
		c.srv.inflight.Add(-1)
	}
}

// done undoes one request's wait-group registration. It runs after the
// reply is enqueued, so Drain and Shutdown still wait for the bytes.
func (c *conn) done() {
	c.srv.reqWg.Done()
	c.inflight.Done()
}

// finishAndEnqueue records an idempotent response in the dedup window
// strictly before sending it: once the bytes can have reached the peer, a
// retry must find the record.
func (c *conn) finishAndEnqueue(req wire.Request, entry *dedupEntry, resp wire.Response) {
	if entry != nil {
		c.cs.finish(req.Idem, resp)
	}
	c.enqueue(resp)
}

// dispatch applies the dispatch failpoint, then executes the request. A
// traced request gets its trace id echoed back canonicalized — after an
// entanglement merge the client learns which trace its spans live under —
// and a dispatch fault injected into it is recorded against the same id.
func (c *conn) dispatch(req wire.Request) wire.Response {
	if err := c.srv.ptDispatch.FireTagged(req.Trace); err != nil {
		return fail(req.ID, err)
	}
	resp := c.handle(req)
	if req.Trace != 0 && resp.Trace == 0 {
		resp.Trace = c.srv.db.Tracer().Canonical(req.Trace)
	}
	return resp
}

// hello binds the client identity. Only the first request on a connection
// may — by then no handler is running, so replacing c.cs cannot race one.
func (c *conn) hello(req wire.Request, first bool) {
	if !first {
		c.enqueue(fail(req.ID, errors.New("hello must be the first request")))
		return
	}
	if req.Client != "" {
		c.srv.bindClient(c, req.Client)
	}
	c.enqueue(wire.Response{ID: req.ID, OK: true, Version: wire.ProtocolVersion})
}

// enqueue appends one encoded response frame to the connection's output
// buffer and wakes the flusher. Encoding happens under outMu so frames
// land in the buffer whole and in enqueue order.
func (c *conn) enqueue(resp wire.Response) {
	c.outMu.Lock()
	defer c.outMu.Unlock()
	if c.outClosed || c.outBroken {
		return
	}
	n := len(c.outBuf)
	buf, err := wire.Binary.AppendResponseFrame(c.outBuf, &resp)
	if err != nil {
		// Nothing reached the buffer (Append*Frame leaves buf unchanged on
		// error): substitute an error response so the client's request does
		// not hang on a silently dropped reply (e.g. a SELECT whose rows
		// exceed MaxFrameSize).
		buf, err = wire.Binary.AppendResponseFrame(c.outBuf[:n], &wire.Response{ID: resp.ID,
			Error: fmt.Sprintf("response could not be encoded: %v", err)})
		if err != nil {
			c.outBroken = true
			c.nc.Close()
			c.outCond.Broadcast()
			return
		}
	}
	c.outBuf = buf
	c.outCond.Signal()
}

// flusher is the connection's single writer: it sleeps until responses
// accumulate, then writes the whole batch in one syscall. Under a
// pipelining client many handlers enqueue while one flush is in flight,
// so consecutive responses coalesce naturally.
func (c *conn) flusher() {
	defer close(c.flusherDone)
	c.outMu.Lock()
	for {
		for len(c.outBuf) == 0 && !c.outClosed && !c.outBroken {
			c.outCond.Wait()
		}
		if len(c.outBuf) == 0 || c.outBroken {
			// Closed and drained (or broken): done. outClosed with frames
			// still buffered keeps flushing — close() waits for the drain.
			c.outMu.Unlock()
			return
		}
		buf := c.outBuf
		c.outBuf = c.outSpare[:0]
		c.outSpare = nil
		c.outMu.Unlock()

		// The deadline bounds how long a non-reading client can stall the
		// flusher (and with it every buffered response).
		c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
		_, err := c.nc.Write(buf)
		c.outMu.Lock()
		c.outSpare = buf[:0]
		if err != nil {
			// The stream is broken (or mid-frame): tear the connection down
			// so the peer sees a closed socket instead of waiting forever.
			c.outBroken = true
			c.nc.Close()
			c.outMu.Unlock()
			return
		}
	}
}

// close tears down the connection and its sessions (open transactions roll
// back); a named client identity is released to linger for clientTTL.
// Buffered responses get a bounded final flush before the socket closes.
// Idempotent.
func (c *conn) close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	sessions := c.sessions
	c.sessions = nil
	c.mu.Unlock()

	c.srv.unbindClient(c.cs)

	for _, ses := range sessions {
		ses.mu.Lock()
		ses.is.Close()
		ses.mu.Unlock()
	}

	// Stop intake, cap the remaining flush time (the deadline overrides
	// the flusher's own, even mid-write), and wait for the flusher to
	// drain what handlers already enqueued.
	c.outMu.Lock()
	c.outClosed = true
	c.outCond.Broadcast()
	c.outMu.Unlock()
	c.nc.SetWriteDeadline(time.Now().Add(closeFlushTimeout))
	<-c.flusherDone
	c.nc.Close()
}

// fail builds an error response, attaching the sentinel code when the
// error maps onto one of the engine's.
func fail(id uint64, err error) wire.Response {
	return wire.Response{ID: id, Error: err.Error(), ErrCode: wire.CodeForError(err)}
}

// handle executes one request. Every path returns exactly one response.
func (c *conn) handle(req wire.Request) wire.Response {
	switch req.Op {
	case wire.OpPing:
		return wire.Response{ID: req.ID, OK: true, Version: wire.ProtocolVersion}

	case wire.OpExec:
		res, err := c.srv.db.ExecTraced(req.SQL, req.Trace)
		if err != nil {
			return fail(req.ID, err)
		}
		return wire.Response{ID: req.ID, OK: true, Result: toWireResult(res)}

	case wire.OpDDL:
		if err := c.srv.db.ExecDDL(req.SQL); err != nil {
			return fail(req.ID, err)
		}
		return wire.Response{ID: req.ID, OK: true}

	case wire.OpSubmit:
		// Submissions run on the engine owning their routing key: a
		// submission that arrived at the wrong server is forwarded to its
		// home shard, and the remote handle parks under a local handle id.
		if ds := c.srv.dist; ds != nil {
			if _, away := ds.homeOf(req.SQL); away {
				return ds.forwardSubmit(c.cs, req)
			}
		}
		h, err := c.srv.db.SubmitScriptTraced(req.SQL, req.Trace)
		if err != nil {
			return fail(req.ID, err)
		}
		// The handle lives in the client state, not the connection: after
		// a reconnect the same client can still Wait on it. The program
		// runs regardless (see package comment).
		return wire.Response{ID: req.ID, OK: true, Handle: c.cs.putHandle(h)}

	case wire.OpWait:
		h, err := c.cs.handle(req.Handle)
		if err != nil {
			return fail(req.ID, err)
		}
		o := h.Wait()
		// The outcome is delivered exactly once per handle (the dedup
		// window covers retries of the same Wait); the client library
		// caches it (and single-flights concurrent Wait/Poll), so the
		// entry can be pruned — otherwise a long-lived client leaks one
		// handle per submitted script.
		c.cs.dropHandle(req.Handle)
		return wire.Response{ID: req.ID, OK: true, Done: true, Outcome: wire.FromOutcome(o)}

	case wire.OpPoll:
		h, err := c.cs.handle(req.Handle)
		if err != nil {
			return fail(req.ID, err)
		}
		if o, ok := h.Poll(); ok {
			c.cs.dropHandle(req.Handle)
			return wire.Response{ID: req.ID, OK: true, Done: true, Outcome: wire.FromOutcome(o)}
		}
		return wire.Response{ID: req.ID, OK: true, Done: false}

	case wire.OpSessionOpen:
		ses := &session{is: c.srv.db.Interactive()}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			ses.is.Close()
			return fail(req.ID, errors.New("connection closed"))
		}
		c.nextSession++
		id := c.nextSession
		c.sessions[id] = ses
		c.mu.Unlock()
		return wire.Response{ID: req.ID, OK: true, Session: id}

	case wire.OpSessionExec:
		ses, err := c.lookupSession(req.Session)
		if err != nil {
			return fail(req.ID, err)
		}
		ses.mu.Lock()
		res, err := ses.is.Exec(req.SQL)
		ses.mu.Unlock()
		if err != nil {
			return fail(req.ID, err)
		}
		return wire.Response{ID: req.ID, OK: true, Result: toWireResult(res)}

	case wire.OpSessionClose:
		c.mu.Lock()
		ses := c.sessions[req.Session]
		delete(c.sessions, req.Session)
		c.mu.Unlock()
		if ses == nil {
			return fail(req.ID, fmt.Errorf("%w %d", wire.ErrUnknownSession, req.Session))
		}
		ses.mu.Lock()
		err := ses.is.Close()
		ses.mu.Unlock()
		if err != nil {
			return fail(req.ID, err)
		}
		return wire.Response{ID: req.ID, OK: true}

	case wire.OpStats:
		raw, err := json.Marshal(c.srv.StatsSnapshot())
		if err != nil {
			return fail(req.ID, err)
		}
		return wire.Response{ID: req.ID, OK: true, Body: raw}

	case wire.OpTables:
		return wire.Response{ID: req.ID, OK: true, Tables: wire.TableInfos(c.srv.db.Catalog())}

	case wire.OpMetrics:
		raw, err := json.Marshal(c.srv.db.Metrics().Snapshot())
		if err != nil {
			return fail(req.ID, err)
		}
		return wire.Response{ID: req.ID, OK: true, Body: raw}

	case wire.OpTrace:
		// The trace id travels in Handle — the same opaque-u64 shape.
		tr, ok := c.srv.db.Tracer().Get(req.Handle)
		if !ok {
			return fail(req.ID, fmt.Errorf("unknown trace %d", req.Handle))
		}
		raw, err := json.Marshal(tr)
		if err != nil {
			return fail(req.ID, err)
		}
		return wire.Response{ID: req.ID, OK: true, Body: raw, Trace: tr.ID}

	case wire.OpPlacement, wire.OpShardStatus, wire.OpShardMsg:
		return c.srv.handleShard(req)

	default:
		return fail(req.ID, fmt.Errorf("unknown op %d", req.Op))
	}
}

func (c *conn) lookupSession(id uint64) (*session, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.sessions[id]; s != nil {
		return s, nil
	}
	return nil, fmt.Errorf("%w %d", wire.ErrUnknownSession, id)
}

func toWireResult(res *entangle.Result) *wire.Result {
	if res == nil {
		return nil
	}
	return &wire.Result{
		Columns:      res.Columns,
		Rows:         res.Rows,
		RowsAffected: res.RowsAffected,
	}
}
