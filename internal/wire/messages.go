package wire

import (
	"repro/internal/storage"
	"repro/internal/types"
)

// ProtocolVersion is bumped on incompatible frame-shape changes; hello and
// ping responses carry it so clients can detect mismatched servers.
// Version 2 is the single binary frame format of binary.go, spoken from
// the first byte of every connection.
const ProtocolVersion = 2

// An Op names a request's operation; its value is the opcode byte of the
// frame, so numbers are append-only. One TCP connection carries any mix;
// the server answers each request with exactly one Response bearing the
// same ID, not necessarily in order (a Wait parks server-side while later
// requests proceed).
type Op uint8

const (
	// OpPing: liveness + protocol version check.
	OpPing Op = 1
	// OpExec: run a classical SQL script (autocommit; DDL allowed) and
	// return the last statement's result. Entangled queries are rejected —
	// they need OpSubmit so the run scheduler can coordinate them.
	OpExec Op = 2
	// OpDDL: run a DDL-only script (CREATE TABLE / CREATE INDEX).
	OpDDL Op = 3
	// OpSubmit: submit a (typically BEGIN...COMMIT, possibly entangled)
	// script to the run scheduler; returns a server-side handle id
	// immediately.
	OpSubmit Op = 4
	// OpWait: block until the handle's program completes; returns its
	// Outcome.
	OpWait Op = 5
	// OpPoll: non-blocking completion check on a handle.
	OpPoll Op = 6
	// OpSessionOpen: open an interactive session (statement-at-a-time
	// classical transactions: BEGIN/COMMIT/ROLLBACK, host variables).
	OpSessionOpen Op = 7
	// OpSessionExec: execute statements in an interactive session.
	OpSessionExec Op = 8
	// OpSessionClose: close an interactive session (open transaction rolls
	// back).
	OpSessionClose Op = 9
	// OpStats: engine counter snapshot (the \stats frame), JSON in
	// Response.Body.
	OpStats Op = 10
	// OpTables: catalog listing.
	OpTables Op = 11
	// OpHello: binds the connection to the stable client identity in
	// Request.Client, so handles and the idempotency window survive
	// reconnects. Must be the first request on a connection; connections
	// that never send it get private, connection-scoped state.
	OpHello Op = 12
	// OpMetrics: observability registry snapshot — counters plus latency
	// histogram percentiles (obs.Registry.Snapshot) as JSON in
	// Response.Body.
	OpMetrics Op = 13
	// OpTrace: fetch one trace's span tree by id (Request.Handle carries
	// the trace id — the same "server-side opaque u64" shape a handle is).
	// The rendered obs.Trace rides in Response.Body as JSON; unknown ids
	// answer OK=false.
	OpTrace Op = 14
	// OpPlacement: fetch the cluster's versioned shard placement map
	// (shard.Map as JSON in Response.Body). Clients call it once at pool
	// dial time and re-fetch when a routed request misses.
	OpPlacement Op = 15
	// OpShardStatus: participant → coordinator. Inquire a group's verdict
	// (Request.Handle carries the group id; dist.Status returns as JSON in
	// Response.Body). Recovery uses it to resolve in-doubt groups.
	OpShardStatus Op = 16
	// OpShardMsg: one fire-and-forget message of the cross-shard group
	// commit — a dist.Envelope (offer, prepare, vote or decide) as JSON in
	// Request.Body. Server-to-server traffic reuses the client protocol:
	// each serve process dials its peers like any client would.
	OpShardMsg Op = 17

	opEnd = OpShardMsg + 1 // first unassigned opcode: follows the last op above
)

// Request is the client→server frame payload.
type Request struct {
	ID      uint64
	Op      Op
	SQL     string // exec / ddl / submit / session_exec
	Handle  uint64 // wait / poll
	Session uint64 // session_exec / session_close
	Idem    uint64 // client-assigned idempotency id (0 = none)
	Client  string // hello: stable client identity for dedup across reconnects
	Body    []byte // op-specific payload, opaque to the codec (shard_msg)
	Trace   uint64 // lifecycle trace id (0 = untraced; see internal/obs)
}

// Response is the server→client frame payload. Exactly one per request,
// correlated by ID. OK false carries Error (and ErrCode when the error is
// one of the engine's sentinel conditions).
//
// One exception to the correlation rule: a well-framed request whose
// payload cannot be decoded at all has an unrecoverable ID, so the server
// answers with ID 0 and then closes the connection (the stream can no
// longer be trusted). Clients should treat an ID-0 error response as fatal
// to the connection, not to any particular request.
type Response struct {
	ID      uint64
	OK      bool
	Error   string
	ErrCode string

	Version int         // ping / hello
	Result  *Result     // exec / session_exec
	Handle  uint64      // submit
	Session uint64      // session_open
	Done    bool        // poll: outcome present
	Outcome *Outcome    // wait / poll
	Body    []byte      // stats / metrics / trace / placement / shard_status payloads, opaque to the codec
	Tables  []TableInfo // tables

	// Trace echoes the request's trace id — canonicalized, so after an
	// entanglement merge the client learns which trace its spans now live
	// under. Zero when the request was untraced; the frame gates it behind
	// a flags bit, so absent = zero bytes on the wire.
	Trace uint64
}

// Result is a query result in wire form; rows use the value encoding of
// internal/types.
type Result struct {
	Columns      []string
	Rows         []types.Tuple
	RowsAffected int
}

// Outcome is a program's final disposition in wire form. Status is the
// core.Status string (COMMITTED, ROLLED-BACK, TIMED-OUT, FAILED).
type Outcome struct {
	Status   string
	Error    string
	ErrCode  string
	Attempts int
}

// ErrCode values let the client map sentinel failures back onto the
// engine's error variables, so errors.Is works across the wire.
const (
	ErrCodeTimeout      = "timeout"       // core.ErrTimeout
	ErrCodeEngineClosed = "engine_closed" // core.ErrEngineClosed
	ErrCodeRolledBack   = "rolled_back"   // core.ErrRolledBack
	ErrCodeDraining     = "draining"      // core.ErrDraining
	ErrCodeOverloaded   = "overloaded"    // wire.ErrOverloaded (admission control shed)

	// ErrCodeUnknownSession marks a session id the server no longer knows —
	// the connection that owned it died (sessions are connection-scoped and
	// roll back on disconnect) and the client reconnected underneath it.
	// Typed so callers can open a fresh session instead of parsing text.
	ErrCodeUnknownSession = "unknown_session" // wire.ErrUnknownSession
)

// TableInfo is one catalog entry.
type TableInfo struct {
	Name   string
	Schema string
	Rows   int
}

// TableInfos renders a catalog in wire form — one shared implementation
// for the server's tables frame and the shell's embedded \tables, so the
// two listings cannot drift.
func TableInfos(cat *storage.Catalog) []TableInfo {
	var out []TableInfo
	for _, name := range cat.Names() {
		tbl, err := cat.Get(name)
		if err != nil {
			continue // dropped between Names and Get
		}
		out = append(out, TableInfo{Name: name, Schema: tbl.Schema().String(), Rows: tbl.Len()})
	}
	return out
}
