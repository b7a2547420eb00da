package server

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/entangle"
	"repro/entangle/client"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/shard"
	"repro/internal/wire"
)

// The sharded-deployment layer: one logical database served by N
// youtopia-serve processes, each owning the shard of users the placement
// map assigns it. Every server is a participant (its engine offers
// unmatched entangled queries, revalidates prepares, parks, votes); the
// shard-0 server additionally hosts the matchmaker — the group
// coordinator that pools offers from every shard, forms cross-shard
// entanglement groups, and drives the two-phase group commit.
//
// Server-to-server traffic reuses the ordinary client protocol: each
// process dials its peers with entangle/client, so cross-shard messages get
// the same write batching and self-healing reconnects as user traffic. The
// four fire-and-forget 2PC messages travel as one dist.Envelope through one
// send/deliver pair — the transport seam: send picks loopback or TCP,
// deliver is what the receiving server runs either way. Submissions that
// arrive at the wrong server are forwarded to their routing key's home
// shard over the same connections — any node can serve any client.

// ShardOptions has no fields: the protocol's timers are constants on the
// engine's clock (entangle.Options.Clock), which the hosted matchmaker
// shares. The type and EnableSharding's parameter remain for existing
// callers that pass ShardOptions{}.
type ShardOptions struct{}

// distState is one server's view of the sharded deployment. It implements
// both halves of the cross-shard transport: core.DistTransport for its own
// engine (participant -> coordinator) and dist.Sender for the matchmaker
// it may host (coordinator -> participant).
type distState struct {
	s         *Server
	placement *shard.Map
	shardID   int
	self      string           // this server's address in the placement map
	coord     string           // the coordinator's (shard 0's) address
	mm        *dist.Matchmaker // non-nil on shard 0

	// Failpoints: "dist.prepare" fails coordinator->participant prepares,
	// "dist.vote" drops participant->coordinator votes. Nil without
	// Options.Faults.
	ptPrepare *fault.Point
	ptVote    *fault.Point

	mu    sync.Mutex
	peers map[string]*peerConn // lazily dialed, one dial per node in flight
}

// peerConn is one peer's self-healing client connection, or the dial that
// is producing it: c and err are valid once ready is closed.
type peerConn struct {
	ready chan struct{}
	c     *client.Client
	err   error
}

// EnableSharding makes this server one member of a sharded deployment:
// shard shardID of the given placement map (Nodes[i] serves shard i).
// Call after NewWithOptions and before Serve — the engine's commit path
// swap is not synchronized against running traffic.
func (s *Server) EnableSharding(m *shard.Map, shardID int, _ ShardOptions) error {
	if m == nil || m.Shards < 1 || len(m.Nodes) != m.Shards {
		return errors.New("server: placement map must name one node per shard")
	}
	if shardID < 0 || shardID >= m.Shards {
		return fmt.Errorf("server: shard %d out of range [0,%d)", shardID, m.Shards)
	}
	if s.dist != nil {
		return errors.New("server: sharding already enabled")
	}
	ds := &distState{
		s:         s,
		placement: m.Clone(),
		shardID:   shardID,
		self:      m.Nodes[shardID],
		coord:     m.Nodes[0],
		peers:     make(map[string]*peerConn),
	}
	if f := s.opts.Faults; f != nil {
		ds.ptPrepare = f.Point("dist.prepare")
		ds.ptVote = f.Point("dist.vote")
	}
	if shardID == 0 {
		ds.mm = dist.New(dist.Options{
			Send:      ds,
			Log:       s.db.LogDecision,
			Clock:     s.db.Engine().Clock(),
			Tracer:    s.db.Tracer(),
			Self:      ds.self,
			Decisions: s.db.RecoveredDecisions(),
			Metrics:   s.db.Metrics(),
		})
	}
	s.dist = ds
	s.db.EnableDist(entangle.DistConfig{Shard: shardID, Node: ds.self, Transport: ds})
	return nil
}

// CloseSharding stops the hosted matchmaker and closes peer connections.
// Call after the DB is drained and closed — the engine's drain may still
// need the transport to resolve parked groups.
func (s *Server) CloseSharding() {
	ds := s.dist
	if ds == nil {
		return
	}
	if ds.mm != nil {
		ds.mm.Close()
	}
	ds.mu.Lock()
	peers := ds.peers
	ds.peers = make(map[string]*peerConn)
	ds.mu.Unlock()
	for _, p := range peers {
		if <-p.ready; p.c != nil {
			p.c.Close()
		}
	}
}

// ResolveInDoubtGroups resolves the transactions recovery left in-doubt
// (prepared, no local verdict) against the coordinator's logged decision:
// Known commit redoes the withheld effects, Known abort (or no record at
// all — presumed abort) discards them. Every pass asks about every
// remaining group, so one undecided group cannot starve the others; pending
// groups and an unreachable coordinator are retried until the budget
// expires on the engine's clock, then the unresolved groups stay in-doubt
// (their effects stay withheld) and the error names each of them.
func (s *Server) ResolveInDoubtGroups(budget time.Duration) error {
	ds := s.dist
	if ds == nil {
		return nil
	}
	var groups []uint64
	for _, g := range s.db.InDoubt() {
		if !slices.Contains(groups, g) {
			groups = append(groups, g)
		}
	}
	slices.Sort(groups)
	clk := s.db.Engine().Clock()
	deadline := clk.Now().Add(budget)
	for {
		var left []uint64
		for _, g := range groups {
			st, err := ds.Status(g)
			if err != nil || st.Pending {
				left = append(left, g)
				continue
			}
			// Known verdict, or no record at all: under presumed abort,
			// "unknown" IS the abort verdict.
			if err := s.db.ResolveInDoubt(g, st.Known && st.Commit); err != nil {
				return err
			}
		}
		if len(left) == 0 {
			return nil
		}
		if clk.Now().After(deadline) {
			return fmt.Errorf("server: in-doubt groups %v unresolved: coordinator unreachable or undecided", left)
		}
		groups = left
		retry := make(chan struct{})
		clk.AfterFunc(100*time.Millisecond, func() { close(retry) })
		<-retry
	}
}

// peerDialTimeout bounds one dial of a peer server.
const peerDialTimeout = 2 * time.Second

// peer returns the self-healing client connection to a peer node, dialing
// it on first use. The dial runs outside ds.mu, so an unreachable peer
// stalls only the callers addressing it; concurrent callers for one node
// share one dial. A failed dial is forgotten, so the next send retries.
func (ds *distState) peer(node string) (*client.Client, error) {
	ds.mu.Lock()
	p := ds.peers[node]
	if p != nil {
		ds.mu.Unlock()
		<-p.ready
		return p.c, p.err
	}
	p = &peerConn{ready: make(chan struct{})}
	ds.peers[node] = p
	ds.mu.Unlock()

	p.c, p.err = client.DialOptions(node, client.Options{DialTimeout: peerDialTimeout})
	if p.err != nil {
		ds.mu.Lock()
		if ds.peers[node] == p {
			delete(ds.peers, node)
		}
		ds.mu.Unlock()
	}
	close(p.ready)
	return p.c, p.err
}

// send moves one 2PC message to node: straight into deliver when node is
// this server, else over the peer connection, whose server runs the same
// deliver. Every cross-shard message goes through here.
func (ds *distState) send(node string, msg dist.Envelope) error {
	if node == ds.self {
		return ds.deliver(msg)
	}
	c, err := ds.peer(node)
	if err != nil {
		return err
	}
	return c.ShardSend(msg)
}

var errNotCoordinator = errors.New("server: not the group coordinator")

// deliver hands a received 2PC message to its consumer: the hosted
// matchmaker for offers and votes, this server's engine for prepares and
// decides.
func (ds *distState) deliver(msg dist.Envelope) error {
	switch {
	case msg.Offer != nil:
		if ds.mm == nil {
			return errNotCoordinator
		}
		ds.mm.AddOffer(msg.Offer)
	case msg.Vote != nil:
		if ds.mm == nil {
			return errNotCoordinator
		}
		ds.mm.HandleVote(*msg.Vote)
	case msg.Prepare != nil:
		ds.s.db.DeliverPrepare(*msg.Prepare)
	case msg.Decide != nil:
		ds.s.db.ApplyDecision(msg.Decide.Group, msg.Decide.Commit)
	default:
		return errors.New("server: empty shard message")
	}
	return nil
}

// --- core.DistTransport (participant -> coordinator) ---------------------

// Offer advertises an unmatched entangled query to the coordinator. A
// lost offer is harmless: the scheduler's retry tick re-grounds and
// re-offers the member while it waits — the one place the cross-shard path
// still leans on the tick; a delivered prepare or decision wakes its
// member directly (core.Engine.DeliverPrepare / ApplyDecision).
func (ds *distState) Offer(o dist.Offer) { _ = ds.send(ds.coord, dist.Envelope{Offer: &o}) }

// Vote reports a prepare outcome to the coordinator. A lost vote resolves
// through the group timeout (abort — all-or-nothing holds).
func (ds *distState) Vote(v dist.Vote) {
	if ds.ptVote.Fire() != nil {
		return // injected lost vote
	}
	_ = ds.send(ds.coord, dist.Envelope{Vote: &v})
}

// Status is the synchronous in-doubt inquiry.
func (ds *distState) Status(group uint64) (dist.Status, error) {
	if ds.mm != nil {
		return ds.mm.Decision(group), nil
	}
	c, err := ds.peer(ds.coord)
	if err != nil {
		return dist.Status{}, err
	}
	return c.ShardStatus(group)
}

// --- dist.Sender (coordinator -> participant) ----------------------------

// Prepare delivers a matched answer to a participant. An error is a no
// vote — the group aborts rather than hang.
func (ds *distState) Prepare(node string, p dist.Prepare) error {
	if err := ds.ptPrepare.Fire(); err != nil {
		return err // injected lost prepare
	}
	return ds.send(node, dist.Envelope{Prepare: &p})
}

// Decide delivers the logged verdict. A lost decide is repaired by the
// participant's status poll.
func (ds *distState) Decide(node string, d dist.Decide) error {
	return ds.send(node, dist.Envelope{Decide: &d})
}

// --- wire handlers -------------------------------------------------------

// handleShard executes the sharding ops: the placement fetch, the in-doubt
// status inquiry, and the one server-to-server 2PC message op.
func (s *Server) handleShard(req wire.Request) wire.Response {
	ds := s.dist
	if ds == nil {
		return fail(req.ID, errors.New("server: sharding not enabled"))
	}
	var body []byte
	var err error
	switch req.Op {
	case wire.OpPlacement:
		body, err = ds.placement.Marshal()
	case wire.OpShardStatus:
		if ds.mm == nil {
			return fail(req.ID, errNotCoordinator)
		}
		body = wire.AppendStatus(nil, ds.mm.Decision(req.Handle))
	case wire.OpShardMsg:
		var msg dist.Envelope
		if msg, err = wire.DecodeEnvelope(req.Body); err != nil {
			err = fmt.Errorf("bad shard message: %w", err)
		} else {
			err = ds.deliver(msg)
		}
	}
	if err != nil {
		return fail(req.ID, err)
	}
	return wire.Response{ID: req.ID, OK: true, Body: body}
}

// homeOf returns the shard owning a script's routing key, and whether the
// script should be forwarded (it has a home that is not this server).
func (ds *distState) homeOf(script string) (int, bool) {
	home := ds.placement.Home(shard.RouteKey(script))
	return home, home != ds.shardID
}

// forwardSubmit relays a submission to its home shard's server and parks
// the remote handle under a local handle id — to the client, a forwarded
// submission is indistinguishable from a local one. The client's trace id
// rides along, so the program's spans land on the home shard's tracer
// under the id the client knows.
func (ds *distState) forwardSubmit(cs *clientState, req wire.Request) wire.Response {
	home := ds.placement.Home(shard.RouteKey(req.SQL))
	peer, err := ds.peer(ds.placement.Nodes[home])
	if err != nil {
		return fail(req.ID, fmt.Errorf("server: home shard %d unreachable: %w", home, err))
	}
	h, err := peer.SubmitScriptTraced(req.SQL, req.Trace)
	if err != nil {
		return fail(req.ID, err)
	}
	resp := wire.Response{ID: req.ID, OK: true, Handle: cs.putHandle(h)}
	if t := h.TraceID(); t != 0 {
		resp.Trace = t
	}
	return resp
}
