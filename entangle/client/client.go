// Package client is the remote counterpart of package entangle: it speaks
// the internal/wire frame protocol to a youtopia-serve process and mirrors
// the DB surface — ExecDDL, Exec/Query, SubmitScript with Handle.Wait,
// interactive sessions — so a program ports from embedded to remote by
// changing one constructor:
//
//	db, _ := entangle.Open(entangle.Options{})     // embedded
//	db, _ := client.Dial("127.0.0.1:7171")         // remote
//
// A Client multiplexes one TCP connection: requests carry IDs, responses
// are correlated back, and a blocked Wait never stalls other calls. All
// methods are safe for concurrent use.
//
// The client is self-healing. When its connection dies it reconnects
// automatically — exponential backoff with jitter, bounded by a dial
// budget — and re-binds its identity to the server, so submitted-program
// handles survive the reconnect. Calls interrupted by a connection failure
// are retried transparently when that is safe: the client stamps mutating
// requests (Exec, ExecDDL, SubmitScript, Wait, Poll) with idempotency ids
// and the server's per-client dedup window makes the retry exactly-once —
// a request that already executed has its recorded response replayed
// instead of running twice. Requests shed by server admission control
// (wire.ErrOverloaded) are retried with backoff for every op, since a shed
// request never dispatched. When the budget runs out the call fails with
// ErrRetriesExhausted (wrapping the last cause, so errors.Is sees both).
// Interactive sessions are the exception: they are connection-scoped
// server-side, so their calls fail over a reconnect rather than retry.
//
// Requests are write-batched: callers encode into one output buffer and a
// flusher goroutine writes accumulated frames in one syscall, so
// pipelined callers — the Async methods, or many goroutines sharing one
// client — amortize both encoding and the syscall. For connection-level
// parallelism on top, see Pool.
package client

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	mrand "math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/entangle"
	"repro/internal/obs"
	"repro/internal/types"
	"repro/internal/wire"
)

// Result mirrors entangle.Result for the fields that travel: columns,
// rows, and the affected-row count.
type Result = wire.Result

// Outcome re-exports the engine outcome type; Handle.Wait returns the same
// statuses (and sentinel errors, via errors.Is) as the embedded API.
type Outcome = entangle.Outcome

// ErrClosed is returned for calls on a closed client (or one whose
// connection died mid-call and could not be retried; the underlying cause
// is wrapped).
var ErrClosed = errors.New("client: connection closed")

// ErrRetriesExhausted is returned when a call's transport retries or
// overload backoffs ran out of budget. The returned error wraps the last
// underlying cause, so errors.Is matches both this sentinel and (say)
// wire.ErrOverloaded.
var ErrRetriesExhausted = errors.New("client: retries exhausted")

type exhaustedError struct{ cause error }

func (e *exhaustedError) Error() string {
	return "client: retries exhausted: " + e.cause.Error()
}
func (e *exhaustedError) Unwrap() error        { return e.cause }
func (e *exhaustedError) Is(target error) bool { return target == ErrRetriesExhausted }

// writeTimeout bounds one batched request write so a dead peer cannot park
// the flusher (and every caller behind it) forever.
const writeTimeout = 30 * time.Second

// Options tunes Dial.
type Options struct {
	// DialTimeout bounds the TCP connect and the protocol handshake, so
	// Dial cannot hang against an endpoint that accepts connections but
	// never answers. Default 5s.
	DialTimeout time.Duration

	// DialBudget is how many dial attempts one reconnect may spend before
	// giving up (default 8). The initial Dial always makes exactly one
	// attempt — fail-fast — so the budget only governs self-healing.
	DialBudget int

	// RetryBudget is how many transparent retries one call may consume
	// across connection failures and overload sheds before failing with
	// ErrRetriesExhausted (default 8).
	RetryBudget int

	// ReconnectBackoff is the first reconnect delay; attempts double it
	// (plus jitter) up to ReconnectMaxBackoff. Defaults 25ms and 1s.
	ReconnectBackoff    time.Duration
	ReconnectMaxBackoff time.Duration

	// Trace mints a lifecycle trace id for every Exec and SubmitScript
	// call and attaches it on the wire, so a server run with tracing
	// enabled records the query's span tree under an id this client knows
	// (Handle.TraceID, Call.TraceID). Off by default: an untraced request
	// carries no trace bytes and costs the server nothing.
	Trace bool
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.DialBudget <= 0 {
		o.DialBudget = 8
	}
	if o.RetryBudget <= 0 {
		o.RetryBudget = 8
	}
	if o.ReconnectBackoff <= 0 {
		o.ReconnectBackoff = 25 * time.Millisecond
	}
	if o.ReconnectMaxBackoff <= 0 {
		o.ReconnectMaxBackoff = time.Second
	}
	return o
}

// readBufSize buffers response reads: a batch of pipelined responses
// costs one read syscall.
const readBufSize = 64 << 10

// Client is a remote DB handle. It owns at most one live TCP connection at
// a time and transparently replaces it when it dies.
type Client struct {
	addr string
	opts Options
	id   string // stable random identity, carried on every hello

	mu       sync.Mutex
	cc       *conn       // live connection; nil while down
	flight   *dialFlight // in-progress reconnect, single-flighted
	closed   bool
	nextID   uint64 // request IDs, client-wide so retries never collide
	nextIdem uint64 // idempotency ids

	reconnects atomic.Int64
	retries    atomic.Int64
}

type dialFlight struct {
	done chan struct{}
	cc   *conn
	err  error
}

// conn is one TCP connection's transport state: pending-call registry,
// write batching, and the read loop. It dies as a unit — any transport
// error fails every pending call and hands control back to the Client.
type conn struct {
	cl *Client
	nc net.Conn
	br *bufio.Reader

	outMu       sync.Mutex
	outCond     *sync.Cond
	outBuf      []byte
	outSpare    []byte
	outClosed   bool
	flusherDone chan struct{}

	mu      sync.Mutex
	pending map[uint64]chan *wire.Response
	dead    bool
	err     error
}

// Dial connects to a youtopia-serve address ("host:port"), binds this
// client's identity, and verifies protocol compatibility.
func Dial(addr string) (*Client, error) { return DialOptions(addr, Options{}) }

// DialOptions is Dial with explicit options. The initial dial is a single
// fail-fast attempt; automatic reconnection (with backoff and budget)
// begins once the first connection is established.
func DialOptions(addr string, opts Options) (*Client, error) {
	var idb [8]byte
	if _, err := rand.Read(idb[:]); err != nil {
		return nil, fmt.Errorf("client: identity: %w", err)
	}
	c := &Client{addr: addr, opts: opts.withDefaults(), id: hex.EncodeToString(idb[:])}
	cc, err := c.dialConn()
	if err != nil {
		return nil, err
	}
	c.cc = cc
	return c, nil
}

// dialConn makes one connection attempt: TCP connect, hello under a
// deadline, then the reader and flusher start.
func (c *Client) dialConn() (*conn, error) {
	nc, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", c.addr, err)
	}
	cc := &conn{
		cl:          c,
		nc:          nc,
		br:          bufio.NewReaderSize(nc, readBufSize),
		pending:     make(map[uint64]chan *wire.Response),
		flusherDone: make(chan struct{}),
	}
	cc.outCond = sync.NewCond(&cc.outMu)
	// The hello runs synchronously under a deadline, before the reader and
	// flusher goroutines exist. A peer that accepts TCP but never speaks
	// the protocol fails the handshake instead of hanging.
	nc.SetDeadline(time.Now().Add(c.opts.DialTimeout))
	if err := cc.hello(c.id); err != nil {
		nc.Close()
		return nil, err
	}
	nc.SetDeadline(time.Time{})
	go cc.readLoop()
	go cc.flusher()
	return cc, nil
}

// hello binds the client identity — so handles and the idempotency window
// survive reconnects — and checks the server's protocol version. A peer
// that does not speak the frame format fails here: its reply does not
// decode, or it closes the connection.
func (cc *conn) hello(clientID string) error {
	if err := wire.WriteFrame(cc.nc, wire.Request{ID: 1, Op: wire.OpHello, Client: clientID}); err != nil {
		return fmt.Errorf("client: hello: %w", err)
	}
	var resp wire.Response
	if err := wire.ReadInto(cc.br, &resp); err != nil {
		return fmt.Errorf("client: hello: %w", err)
	}
	if !resp.OK {
		return fmt.Errorf("client: hello: %s", resp.Error)
	}
	if resp.Version != wire.ProtocolVersion {
		return fmt.Errorf("client: protocol version mismatch: server %d, client %d",
			resp.Version, wire.ProtocolVersion)
	}
	return nil
}

// Healthy reports whether the client currently holds a live connection.
// A false answer is not fatal — a background reconnect may be in
// progress — but Pool uses it to steer callers toward live connections.
func (c *Client) Healthy() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.closed && c.cc != nil
}

// Reconnects reports how many times this client has successfully replaced
// a dead connection.
func (c *Client) Reconnects() int64 { return c.reconnects.Load() }

// Retries reports how many transparent call retries (transport failures
// and overload sheds) this client has performed.
func (c *Client) Retries() int64 { return c.retries.Load() }

// Close tears down the connection. In-flight calls fail with ErrClosed.
// Programs already submitted keep running server-side to their own
// outcome.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	cc := c.cc
	c.cc = nil
	c.mu.Unlock()
	if cc != nil {
		return cc.teardown(ErrClosed)
	}
	return nil
}

// connDied detaches a dead connection and starts a background reconnect,
// so the client heals even with no caller currently blocked on it (this
// is what lets Pool evict dead connections and redial in the background).
func (c *Client) connDied(cc *conn) {
	c.mu.Lock()
	if c.cc == cc {
		c.cc = nil
	}
	closed := c.closed
	c.mu.Unlock()
	if !closed {
		go func() { _, _ = c.reconnect() }()
	}
}

// reconnect returns a live connection, dialing one if needed. Concurrent
// callers single-flight one dial sequence: DialBudget attempts with
// exponential backoff plus jitter.
func (c *Client) reconnect() (*conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if c.cc != nil {
		cc := c.cc
		c.mu.Unlock()
		return cc, nil
	}
	if f := c.flight; f != nil {
		c.mu.Unlock()
		<-f.done
		return f.cc, f.err
	}
	f := &dialFlight{done: make(chan struct{})}
	c.flight = f
	c.mu.Unlock()

	var cc *conn
	var err error
	backoff := c.opts.ReconnectBackoff
	for attempt := 0; attempt < c.opts.DialBudget; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff + time.Duration(mrand.Int63n(int64(backoff/2)+1)))
			if backoff *= 2; backoff > c.opts.ReconnectMaxBackoff {
				backoff = c.opts.ReconnectMaxBackoff
			}
		}
		if c.isClosed() {
			err = ErrClosed
			break
		}
		cc, err = c.dialConn()
		if err == nil {
			break
		}
	}

	c.mu.Lock()
	c.flight = nil
	if err == nil {
		if c.closed {
			c.mu.Unlock()
			cc.teardown(ErrClosed)
			c.mu.Lock()
			cc, err = nil, ErrClosed
		} else {
			c.cc = cc
			c.reconnects.Add(1)
		}
	}
	c.mu.Unlock()
	f.cc, f.err = cc, err
	close(f.done)
	return cc, err
}

func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// readLoop delivers responses to their waiting callers until the
// connection dies, then fails everything pending on it.
func (cc *conn) readLoop() {
	for {
		payload, err := wire.ReadFrame(cc.br)
		if err != nil {
			cc.fail(fmt.Errorf("%w: %v", ErrClosed, err))
			return
		}
		var resp wire.Response
		if err := wire.Binary.DecodeResponse(payload, &resp); err != nil {
			cc.fail(fmt.Errorf("%w: %v", ErrClosed, err))
			return
		}
		cc.mu.Lock()
		ch := cc.pending[resp.ID]
		delete(cc.pending, resp.ID)
		cc.mu.Unlock()
		if ch != nil {
			ch <- &resp
		}
	}
}

// flusher writes accumulated request frames in one syscall per batch.
func (cc *conn) flusher() {
	defer close(cc.flusherDone)
	cc.outMu.Lock()
	for {
		for len(cc.outBuf) == 0 && !cc.outClosed {
			cc.outCond.Wait()
		}
		if len(cc.outBuf) == 0 {
			cc.outMu.Unlock()
			return
		}
		buf := cc.outBuf
		cc.outBuf = cc.outSpare[:0]
		cc.outSpare = nil
		cc.outMu.Unlock()

		cc.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
		_, err := cc.nc.Write(buf)
		cc.outMu.Lock()
		cc.outSpare = buf[:0]
		if err != nil {
			cc.outMu.Unlock()
			cc.fail(fmt.Errorf("%w: %v", ErrClosed, err))
			cc.outMu.Lock()
		}
	}
}

// fail kills the connection as a unit: pending calls see a closed channel
// (their retry logic takes over), the socket closes, and the Client is
// told to heal. Idempotent.
func (cc *conn) fail(err error) {
	cc.mu.Lock()
	if cc.dead {
		cc.mu.Unlock()
		return
	}
	cc.dead = true
	cc.err = err
	pending := cc.pending
	cc.pending = make(map[uint64]chan *wire.Response)
	cc.mu.Unlock()

	cc.outMu.Lock()
	cc.outClosed = true
	cc.outBuf = nil
	cc.outCond.Broadcast()
	cc.outMu.Unlock()
	cc.nc.Close()

	for _, ch := range pending {
		close(ch)
	}
	cc.cl.connDied(cc)
}

// teardown is fail plus waiting out the flusher, for an orderly Close.
func (cc *conn) teardown(err error) error {
	cc.fail(err)
	<-cc.flusherDone
	return nil
}

// deadErr returns the connection's terminal error (ErrClosed if none yet).
func (cc *conn) deadErr() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.err != nil {
		return cc.err
	}
	return ErrClosed
}

// send registers the request's response channel and enqueues its frame.
// An encode failure is permanent for the request but leaves the
// connection healthy (the frame never entered the stream).
func (cc *conn) send(req *wire.Request, ch chan *wire.Response) error {
	cc.mu.Lock()
	if cc.dead {
		err := cc.err
		cc.mu.Unlock()
		return err
	}
	cc.pending[req.ID] = ch
	cc.mu.Unlock()

	cc.outMu.Lock()
	if cc.outClosed {
		cc.outMu.Unlock()
		cc.dropPending(req.ID)
		return cc.deadErr()
	}
	buf, err := wire.Binary.AppendRequestFrame(cc.outBuf, req)
	if err != nil {
		cc.outMu.Unlock()
		cc.dropPending(req.ID)
		return err
	}
	cc.outBuf = buf
	cc.outCond.Signal()
	cc.outMu.Unlock()
	return nil
}

func (cc *conn) dropPending(id uint64) {
	cc.mu.Lock()
	delete(cc.pending, id)
	cc.mu.Unlock()
}

// idempotentOp reports whether op is safe to retry under an idempotency
// id: the server dedups re-execution, so the retry is exactly-once.
func idempotentOp(op wire.Op) bool {
	switch op {
	case wire.OpExec, wire.OpDDL, wire.OpSubmit, wire.OpWait, wire.OpPoll:
		return true
	}
	return false
}

// naturallyRetryable reports ops safe to retry even without dedup:
// read-only, or creating connection-scoped state that dies with the
// failed connection anyway. OpShardMsg (the 2PC offer/prepare/vote/decide
// envelope) is deliberately absent: the protocol repairs its own lost
// messages (see shard.go), so a transport retry could only resurrect
// stale ones.
func naturallyRetryable(op wire.Op) bool {
	switch op {
	case wire.OpPing, wire.OpStats, wire.OpTables, wire.OpSessionOpen,
		wire.OpPlacement, wire.OpShardStatus:
		return true
	}
	return false
}

// Call is one in-flight pipelined request: issue with an Async method (or
// startCall), then block on the result when it is actually needed. The
// issue side never waits on the network, so a caller can keep dozens of
// requests in flight on one connection — the server executes them
// concurrently and the client's flusher coalesces their frames. The
// completion side owns retries: if the connection dies under the call (or
// the server sheds it), response() re-issues the same request — same ID,
// same idempotency id — on a healed connection, within the retry budget.
type Call struct {
	c   *Client
	req wire.Request
	ch  chan *wire.Response // nil: not (or no longer) issued
	err error               // issue-side terminal failure

	attempts int // retries consumed
}

// startCall assigns the request its IDs and makes a best-effort first
// issue. A down connection is not an error here — response() heals and
// issues.
func (c *Client) startCall(req wire.Request) *Call {
	call := &Call{c: c}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		call.err = ErrClosed
		return call
	}
	c.nextID++
	req.ID = c.nextID
	if idempotentOp(req.Op) {
		c.nextIdem++
		req.Idem = c.nextIdem
	}
	cc := c.cc
	c.mu.Unlock()
	call.req = req
	if cc != nil {
		call.issue(cc)
	}
	return call
}

// issue registers the call on cc with a fresh response channel.
func (call *Call) issue(cc *conn) error {
	ch := make(chan *wire.Response, 1)
	if err := cc.send(&call.req, ch); err != nil {
		return err
	}
	call.ch = ch
	return nil
}

// permanentIssueErr reports send failures that no retry can fix: the
// request itself cannot be encoded.
func permanentIssueErr(err error) bool {
	return errors.Is(err, wire.ErrEncode) || errors.Is(err, wire.ErrFrameTooLarge)
}

// retryable reports whether the call may be re-issued after a transport
// failure that lost its response: only when the server dedups it (idem id
// assigned) or re-execution is harmless.
func (call *Call) retryable() bool {
	return call.req.Idem != 0 || naturallyRetryable(call.req.Op)
}

// spend consumes one unit of retry budget; returns false once exhausted.
func (call *Call) spend() bool {
	call.attempts++
	if call.attempts > call.c.opts.RetryBudget {
		return false
	}
	call.c.retries.Add(1)
	return true
}

// response blocks for the raw response, healing the connection and
// retrying as the retry contract allows, and unwraps server-side errors.
func (call *Call) response() (*wire.Response, error) {
	if call.err != nil {
		return nil, call.err
	}
	for {
		if call.ch == nil {
			cc, err := call.c.reconnect()
			if err != nil {
				if errors.Is(err, ErrClosed) {
					return nil, err
				}
				return nil, &exhaustedError{cause: err}
			}
			if err := call.issue(cc); err != nil {
				if permanentIssueErr(err) {
					return nil, err
				}
				// The conn died between reconnect and issue; spend budget
				// and heal again.
				if !call.spend() {
					return nil, &exhaustedError{cause: err}
				}
				continue
			}
		}
		resp, ok := <-call.ch
		if !ok {
			// Transport death lost the response. Retry only when the
			// request cannot double-execute.
			call.ch = nil
			cause := ErrClosed
			if call.c.isClosed() {
				return nil, cause
			}
			if !call.retryable() {
				return nil, cause
			}
			if !call.spend() {
				return nil, &exhaustedError{cause: cause}
			}
			continue
		}
		if !resp.OK {
			err := wire.ErrorForCode(resp.ErrCode, resp.Error)
			if err == nil {
				err = errors.New(resp.Error)
			}
			if errors.Is(err, wire.ErrOverloaded) {
				// Shed by admission control before dispatch: safe to retry
				// any op, after a short growing backoff.
				call.ch = nil
				if !call.spend() {
					return nil, &exhaustedError{cause: err}
				}
				d := time.Duration(1<<uint(call.attempts)) * time.Millisecond
				if d > 100*time.Millisecond {
					d = 100 * time.Millisecond
				}
				time.Sleep(d + time.Duration(mrand.Int63n(int64(d)+1)))
				continue
			}
			return nil, err
		}
		return resp, nil
	}
}

// Result blocks until the call completes and returns its query result.
func (call *Call) Result() (*Result, error) {
	resp, err := call.response()
	if err != nil {
		return nil, err
	}
	if resp.Result == nil {
		return &Result{}, nil
	}
	return resp.Result, nil
}

// Err blocks until the call completes and reports only its error.
func (call *Call) Err() error {
	_, err := call.response()
	return err
}

// call is the synchronous form: issue and block.
func (c *Client) call(req wire.Request) (*wire.Response, error) {
	return c.startCall(req).response()
}

// Ping round-trips a liveness check.
func (c *Client) Ping() error {
	_, err := c.call(wire.Request{Op: wire.OpPing})
	return err
}

// ExecDDL runs CREATE TABLE / CREATE INDEX statements.
func (c *Client) ExecDDL(script string) error {
	_, err := c.call(wire.Request{Op: wire.OpDDL, SQL: script})
	return err
}

// Exec runs a classical statement (or bare script) in autocommit mode and
// returns the last statement's result, like entangle.DB.Exec.
func (c *Client) Exec(script string) (*Result, error) {
	return c.ExecAsync(script).Result()
}

// ExecAsync issues an Exec without waiting; pipelined requests complete
// independently and in any order.
func (c *Client) ExecAsync(script string) *Call {
	return c.startCall(wire.Request{Op: wire.OpExec, SQL: script, Trace: c.mintTrace()})
}

// Query runs a single SELECT and returns its rows.
func (c *Client) Query(src string) (*Result, error) { return c.Exec(src) }

// QueryAsync issues a Query without waiting.
func (c *Client) QueryAsync(src string) *Call { return c.ExecAsync(src) }

// SubmitScript submits a SQL script (BEGIN...COMMIT blocks may contain
// entangled queries) to the server's run scheduler and returns immediately
// with a Handle.
func (c *Client) SubmitScript(script string) (*Handle, error) {
	return c.SubmitScriptTraced(script, 0)
}

// mintTrace returns a fresh trace id when Options.Trace is set, else 0.
func (c *Client) mintTrace() uint64 {
	if !c.opts.Trace {
		return 0
	}
	return obs.MintID()
}

// Stats fetches the engine counter snapshot.
func (c *Client) Stats() (entangle.StatsSnapshot, error) {
	var snap entangle.StatsSnapshot
	resp, err := c.call(wire.Request{Op: wire.OpStats})
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(resp.Body, &snap); err != nil {
		return snap, fmt.Errorf("client: decode stats: %w", err)
	}
	return snap, nil
}

// Tables lists the catalog.
func (c *Client) Tables() ([]wire.TableInfo, error) {
	resp, err := c.call(wire.Request{Op: wire.OpTables})
	if err != nil {
		return nil, err
	}
	return resp.Tables, nil
}

// Metrics fetches the server's observability registry snapshot — the
// counters and latency-histogram percentiles behind the \metrics shell
// command and the /metrics debug endpoint.
func (c *Client) Metrics() (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := c.call(wire.Request{Op: wire.OpMetrics})
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(resp.Body, &snap); err != nil {
		return snap, fmt.Errorf("client: decode metrics: %w", err)
	}
	return snap, nil
}

// Trace fetches one trace's recorded span tree by id. The id is resolved
// through entanglement merges server-side, so the id minted at submit
// time keeps working after its trace folded into a partner's.
func (c *Client) Trace(id uint64) (obs.Trace, error) {
	var tr obs.Trace
	resp, err := c.call(wire.Request{Op: wire.OpTrace, Handle: id})
	if err != nil {
		return tr, err
	}
	if err := json.Unmarshal(resp.Body, &tr); err != nil {
		return tr, fmt.Errorf("client: decode trace: %w", err)
	}
	return tr, nil
}

// Handle awaits a submitted program's outcome, mirroring entangle.Handle.
// Handles are scoped to the client identity server-side, so a Handle keeps
// working across an automatic reconnect. The server delivers an outcome
// exactly once (and prunes its side of the handle), so retrieval is
// single-flighted here: concurrent Wait/Poll calls share one server
// request and every later call reads the cache.
type Handle struct {
	c     *Client
	id    uint64
	trace uint64 // minted trace id, updated to canonical on settle

	fetchMu sync.Mutex // single-flights the outcome retrieval
	mu      sync.Mutex // guards out/got/trace
	out     Outcome
	got     bool
}

// TraceID returns the lifecycle trace id attached to this submission (0
// when the client is not tracing). After the outcome arrives, the id is
// the canonical one — if the program entangled with a partner and their
// traces merged, both handles report the same id.
func (h *Handle) TraceID() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.trace
}

func (h *Handle) cached() (Outcome, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.out, h.got
}

// Wait blocks until the program completes and returns its outcome. A
// connection failure while waiting is retried (the Wait is idempotent
// under its dedup id); if retries run out it reports StatusFailed with
// the transport error — the program itself still runs to completion
// server-side.
func (h *Handle) Wait() Outcome {
	h.fetchMu.Lock()
	defer h.fetchMu.Unlock()
	if o, ok := h.cached(); ok {
		return o
	}
	resp, err := h.c.call(wire.Request{Op: wire.OpWait, Handle: h.id, Trace: h.TraceID()})
	return h.settle(resp, err)
}

// Poll reports the outcome without blocking server-side; ok is false while
// the program is still in flight (or while another goroutine's Wait is
// already fetching the outcome). A transport error reports ok=true with
// StatusFailed, like Wait.
func (h *Handle) Poll() (Outcome, bool) {
	if !h.fetchMu.TryLock() {
		// A Wait (or another Poll) is mid-retrieval; its result will land
		// in the cache. Report "not yet" rather than racing it.
		if o, ok := h.cached(); ok {
			return o, true
		}
		return Outcome{}, false
	}
	defer h.fetchMu.Unlock()
	if o, ok := h.cached(); ok {
		return o, true
	}
	resp, err := h.c.call(wire.Request{Op: wire.OpPoll, Handle: h.id, Trace: h.TraceID()})
	if err == nil && !resp.Done {
		return Outcome{}, false
	}
	return h.settle(resp, err), true
}

func (h *Handle) settle(resp *wire.Response, err error) Outcome {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.got {
		return h.out
	}
	if resp != nil && resp.Trace != 0 {
		h.trace = resp.Trace
	}
	switch {
	case err != nil:
		h.out = Outcome{Status: entangle.StatusFailed, Err: err}
	case resp.Outcome == nil:
		h.out = Outcome{Status: entangle.StatusFailed, Err: errors.New("client: response missing outcome")}
	default:
		h.out = resp.Outcome.ToOutcome()
	}
	h.got = true
	return h.out
}

// InteractiveSession mirrors entangle.InteractiveSession over the wire:
// statement-at-a-time classical transactions with BEGIN/COMMIT/ROLLBACK
// and persistent host variables. Not safe for concurrent use, like its
// embedded counterpart. Sessions are connection-scoped server-side: if the
// connection dies, the session's open transaction rolls back and further
// Execs fail — by design, they are never transparently retried.
type InteractiveSession struct {
	c      *Client
	id     uint64
	err    error // session_open failure, reported on first Exec
	closed bool
}

// Interactive opens a session. Errors surface on the first Exec, matching
// the embedded API's signature.
func (c *Client) Interactive() *InteractiveSession {
	resp, err := c.call(wire.Request{Op: wire.OpSessionOpen})
	if err != nil {
		return &InteractiveSession{c: c, err: err}
	}
	return &InteractiveSession{c: c, id: resp.Session}
}

// Exec executes one statement (or a semicolon-separated batch) in the
// session and returns the last result.
func (s *InteractiveSession) Exec(src string) (*Result, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.closed {
		return nil, errors.New("client: session closed")
	}
	resp, err := s.c.call(wire.Request{Op: wire.OpSessionExec, Session: s.id, SQL: src})
	if err != nil {
		return nil, err
	}
	if resp.Result == nil {
		return &Result{}, nil
	}
	return resp.Result, nil
}

// Close ends the session; an open transaction block rolls back.
func (s *InteractiveSession) Close() error {
	if s.err != nil || s.closed {
		return nil
	}
	s.closed = true
	_, err := s.c.call(wire.Request{Op: wire.OpSessionClose, Session: s.id})
	return err
}

// Values re-exports tuple construction so remote programs read like
// embedded ones.
func Values(vs ...types.Value) types.Tuple { return entangle.Values(vs...) }
