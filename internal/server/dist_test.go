package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/entangle"
	"repro/entangle/client"
	"repro/internal/clock"
	"repro/internal/dist"
	"repro/internal/eq"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/wire"
)

// shardedPair is a two-shard deployment over loopback TCP: two servers,
// two engines with disjoint storage, shard 0 hosting the matchmaker. The
// placement map pins the test users explicitly so every test controls
// which shard is home. Both engines, and so the matchmaker, share one fake
// clock: deadlines, group timers, status polls and retry ticks move only
// when a test advances it.
type shardedPair struct {
	addrs [2]string
	dbs   [2]*entangle.DB
	srvs  [2]*Server
	place *shard.Map
	clock *clock.Fake
}

func startShardedPair(t *testing.T, dbOpts func(i int) entangle.Options, srvOpts func(i int) Options) *shardedPair {
	t.Helper()
	sp := &shardedPair{clock: clock.NewFake(time.Now())}
	var lns [2]net.Listener
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		sp.addrs[i] = ln.Addr().String()
	}
	sp.place = shard.New(sp.addrs[:])
	sp.place.Overrides = map[string]int{
		"Mickey": 0, "Goofy": 0, "Daisy": 0,
		"Minnie": 1, "Donald": 1, "Pluto": 1,
	}
	for i := range sp.srvs {
		opts := entangle.Options{RetryInterval: 10 * time.Millisecond}
		if dbOpts != nil {
			opts = dbOpts(i)
		}
		opts.Clock = sp.clock
		var so Options
		if srvOpts != nil {
			so = srvOpts(i)
		}
		sp.dbs[i], sp.srvs[i] = startShardMember(t, lns[i], sp.place, i, opts, so)
	}
	return sp
}

// startShardMember opens one engine and serves it on ln as shard i of the
// placement; cleanup shuts the server down, then the engine, then the
// peer connections. A nil opts.Clock gets a fake clock of its own that
// nothing advances: no timer fires unless the test drives one.
func startShardMember(t *testing.T, ln net.Listener, place *shard.Map, i int,
	opts entangle.Options, so Options) (*entangle.DB, *Server) {
	t.Helper()
	if opts.Clock == nil {
		opts.Clock = clock.NewFake(time.Now())
	}
	db, err := entangle.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(db, so)
	if err := srv.EnableSharding(place, i, ShardOptions{}); err != nil {
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
		srv.CloseSharding()
	})
	return db, srv
}

// seed creates the flight schema and seed rows on every shard — each
// engine owns its own catalog copy of the shared tables.
func (sp *shardedPair) seed(t *testing.T, p *client.Pool) {
	t.Helper()
	if err := p.ExecDDL(`
		CREATE TABLE Flights (fno INT, fdate DATE, dest VARCHAR);
		CREATE TABLE Bookings (name VARCHAR, fno INT, fdate DATE);
	`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := p.GetShard(i).Exec(`
			INSERT INTO Flights VALUES (122, '2011-05-03', 'LA');
			INSERT INTO Flights VALUES (123, '2011-05-04', 'LA');
		`); err != nil {
			t.Fatal(err)
		}
	}
}

// waitFor polls cond until it holds, failing the test after 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func bookingsOn(t *testing.T, c *client.Client, name string) []string {
	t.Helper()
	res, err := c.Query(fmt.Sprintf("SELECT fno FROM Bookings WHERE name='%s'", name))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, row := range res.Rows {
		out = append(out, row[0].String())
	}
	return out
}

// TestShardedPairCommitsAcrossServers is the PR milestone: a giftmatch-
// style flight pair whose members live on different serve processes is
// answered atomically — both commit the same flight, each on its own
// shard, through the two-phase cross-shard group commit.
func TestShardedPairCommitsAcrossServers(t *testing.T) {
	sp := startShardedPair(t, nil, nil)
	pool, err := client.DialShardedPool(sp.addrs[0], client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if got := pool.Placement().Shards; got != 2 {
		t.Fatalf("placement shards = %d, want 2", got)
	}
	sp.seed(t, pool)

	h1, err := pool.SubmitScript(flightPair("Mickey", "Minnie"))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := pool.SubmitScript(flightPair("Minnie", "Mickey"))
	if err != nil {
		t.Fatal(err)
	}
	if o := h1.Wait(); o.Status != entangle.StatusCommitted {
		t.Fatalf("Mickey: %+v", o)
	}
	if o := h2.Wait(); o.Status != entangle.StatusCommitted {
		t.Fatalf("Minnie: %+v", o)
	}

	// Each member's booking lives on its own shard, and both booked the
	// same flight — the unified answer crossed processes.
	bm := bookingsOn(t, pool.GetShard(0), "Mickey")
	bn := bookingsOn(t, pool.GetShard(1), "Minnie")
	if len(bm) != 1 || len(bn) != 1 {
		t.Fatalf("bookings = %v / %v", bm, bn)
	}
	if bm[0] != bn[0] {
		t.Fatalf("pair booked different flights: %v vs %v", bm, bn)
	}
	// And the off-home shards hold nothing: the data is partitioned.
	if n := len(bookingsOn(t, pool.GetShard(1), "Mickey")); n != 0 {
		t.Fatalf("Mickey's booking leaked to shard 1 (%d rows)", n)
	}
	for i, db := range sp.dbs {
		if g := db.Engine().Stats().GroupCommits; g != 1 {
			t.Errorf("shard %d GroupCommits = %d, want 1", i, g)
		}
	}
}

// TestSubmitForwardsToHomeShard: both clients talk to the shard-0 server
// only; Minnie's submission must be forwarded to its home shard and still
// coordinate with Mickey's. Any node serves any client.
func TestSubmitForwardsToHomeShard(t *testing.T) {
	sp := startShardedPair(t, nil, nil)
	pool, err := client.DialShardedPool(sp.addrs[0], client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sp.seed(t, pool)

	front := dialTest(t, sp.addrs[0]) // wrong server for Minnie
	h1, err := front.SubmitScript(flightPair("Mickey", "Minnie"))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := front.SubmitScript(flightPair("Minnie", "Mickey"))
	if err != nil {
		t.Fatal(err)
	}
	if o := h1.Wait(); o.Status != entangle.StatusCommitted {
		t.Fatalf("Mickey: %+v", o)
	}
	if o := h2.Wait(); o.Status != entangle.StatusCommitted {
		t.Fatalf("Minnie (forwarded): %+v", o)
	}
	// The forwarded program ran on its home shard.
	if n := len(bookingsOn(t, pool.GetShard(1), "Minnie")); n != 1 {
		t.Fatalf("Minnie's booking on home shard: %d rows, want 1", n)
	}
	if n := len(bookingsOn(t, pool.GetShard(0), "Minnie")); n != 0 {
		t.Fatalf("Minnie's booking on the forwarding shard: %d rows, want 0", n)
	}
}

// TestShardedVoteLossAllOrNothing injects a dropped yes-vote on shard 1:
// the first cross-shard group must abort as a unit at the group timeout
// (nobody commits on an incomplete tally), then both members retry into a
// clean commit.
func TestShardedVoteLossAllOrNothing(t *testing.T) {
	regs := [2]*fault.Registry{fault.NewRegistry(1), fault.NewRegistry(2)}
	regs[1].Enable("dist.vote", fault.Trigger{EveryNth: 1, OneShot: true}, fault.Action{Kind: fault.KindDrop})
	sp := startShardedPair(t, nil, func(i int) Options { return Options{Faults: regs[i]} })
	pool, err := client.DialShardedPool(sp.addrs[0], client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sp.seed(t, pool)

	h1, err := pool.SubmitScript(flightPair("Mickey", "Minnie"))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := pool.SubmitScript(flightPair("Minnie", "Mickey"))
	if err != nil {
		t.Fatal(err)
	}
	// Both members parked and shard 1's vote was lost; the group timer then
	// presumes abort.
	waitFor(t, "the lost vote", func() bool {
		return regs[1].Fired() == 1 && sp.dbs[0].Engine().Parked() == 1 && sp.dbs[1].Engine().Parked() == 1
	})
	sp.clock.Advance(dist.GroupTimeout)
	if o := h1.Wait(); o.Status != entangle.StatusCommitted {
		t.Fatalf("Mickey: %+v", o)
	}
	if o := h2.Wait(); o.Status != entangle.StatusCommitted {
		t.Fatalf("Minnie: %+v", o)
	}
	if fired := regs[1].Fired(); fired != 1 {
		t.Fatalf("vote failpoint fired %d times, want 1", fired)
	}
	bm := bookingsOn(t, pool.GetShard(0), "Mickey")
	bn := bookingsOn(t, pool.GetShard(1), "Minnie")
	if len(bm) != 1 || len(bn) != 1 {
		t.Fatalf("all-or-nothing violated: bookings %v / %v", bm, bn)
	}
	if bm[0] != bn[0] {
		t.Fatalf("pair split across flights: %v vs %v", bm, bn)
	}
	// The aborted first group rolled someone back as an averted widow.
	if w := sp.dbs[0].Engine().Stats().WidowsAverted + sp.dbs[1].Engine().Stats().WidowsAverted; w == 0 {
		t.Error("WidowsAverted = 0, want > 0 after the aborted group")
	}
}

// TestShardedPrepareLossAborts injects a failed prepare delivery on the
// coordinator: the group aborts immediately (a lost prepare is a no
// vote), and the pair still converges on a later clean group.
func TestShardedPrepareLossAborts(t *testing.T) {
	regs := [2]*fault.Registry{fault.NewRegistry(3), fault.NewRegistry(4)}
	regs[0].Enable("dist.prepare", fault.Trigger{EveryNth: 1, OneShot: true}, fault.Action{Kind: fault.KindError})
	sp := startShardedPair(t, nil, func(i int) Options { return Options{Faults: regs[i]} })
	pool, err := client.DialShardedPool(sp.addrs[0], client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sp.seed(t, pool)

	h1, err := pool.SubmitScript(flightPair("Mickey", "Minnie"))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := pool.SubmitScript(flightPair("Minnie", "Mickey"))
	if err != nil {
		t.Fatal(err)
	}
	// The member whose prepare was lost is not woken by the abort: the retry
	// tick re-offers it. Its partner either took the abort decision or
	// parked after it arrived and must ask for it after the status grace.
	// Advance the clock by that grace (1s) once the group aborted and the
	// partner did one or the other.
	waitFor(t, "the aborted group", func() bool {
		var n int64
		for _, db := range sp.dbs {
			n += int64(db.Engine().Parked()) + db.Engine().Stats().WidowsAverted
		}
		return sp.dbs[0].Metrics().Snapshot().Counters["dist_group_aborts"] == 1 && n == 1
	})
	sp.clock.Advance(time.Second)
	if o := h1.Wait(); o.Status != entangle.StatusCommitted {
		t.Fatalf("Mickey: %+v", o)
	}
	if o := h2.Wait(); o.Status != entangle.StatusCommitted {
		t.Fatalf("Minnie: %+v", o)
	}
	bm := bookingsOn(t, pool.GetShard(0), "Mickey")
	bn := bookingsOn(t, pool.GetShard(1), "Minnie")
	if len(bm) != 1 || len(bn) != 1 || bm[0] != bn[0] {
		t.Fatalf("bookings after prepare loss: %v / %v", bm, bn)
	}
}

// TestTwoProcessTraceMergesIntoOneTrace is the sharded extension of the
// PR 9 trace scenario: the pair's members run on DIFFERENT servers, each
// stamping its spans with its own shard id, and the coordinator
// assembles the one merged trace — remote spans arrive with the votes.
func TestTwoProcessTraceMergesIntoOneTrace(t *testing.T) {
	tracers := [2]*obs.Tracer{
		obs.NewTracer(obs.TracerOptions{Shard: 0}),
		obs.NewTracer(obs.TracerOptions{Shard: 1}),
	}
	sp := startShardedPair(t, func(i int) entangle.Options {
		return entangle.Options{
			RetryInterval: 10 * time.Millisecond,
			Tracer:        tracers[i],
			Metrics:       obs.NewRegistry(),
		}
	}, nil)
	pool, err := client.DialShardedPool(sp.addrs[0], client.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sp.seed(t, pool)

	h1, err := pool.SubmitScript(flightPair("Mickey", "Minnie"))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := pool.SubmitScript(flightPair("Minnie", "Mickey"))
	if err != nil {
		t.Fatal(err)
	}
	mint1, mint2 := h1.TraceID(), h2.TraceID()
	if mint1 == 0 || mint2 == 0 || mint1 == mint2 {
		t.Fatalf("minted trace ids: %d / %d", mint1, mint2)
	}
	if o := h1.Wait(); o.Status != entangle.StatusCommitted {
		t.Fatalf("Mickey: %+v", o)
	}
	if o := h2.Wait(); o.Status != entangle.StatusCommitted {
		t.Fatalf("Minnie: %+v", o)
	}

	// The coordinator's tracer resolves BOTH minted ids to one merged
	// trace: the remote member's spans crossed the wire with its vote.
	tr1, ok1 := tracers[0].Get(mint1)
	tr2, ok2 := tracers[0].Get(mint2)
	if !ok1 || !ok2 {
		t.Fatalf("coordinator tracer missing traces: %v / %v", ok1, ok2)
	}
	if tr1.ID != tr2.ID {
		t.Fatalf("traces did not merge on the coordinator: %d vs %d", tr1.ID, tr2.ID)
	}
	matches := 0
	for _, r := range tracers[0].Recent() {
		if r.ID == tr1.ID {
			matches++
		}
	}
	if matches != 1 {
		t.Fatalf("coordinator recent ring holds %d entries for the group, want 1", matches)
	}

	// Both lifecycles appear in the one span tree, each stamped with the
	// shard that recorded it: the local member's spans carry shard 0, the
	// absorbed remote member's carry shard 1.
	shards := map[uint64]map[int]bool{mint1: {}, mint2: {}}
	names := map[uint64]map[string]bool{mint1: {}, mint2: {}}
	for _, s := range tr1.Spans {
		if m := shards[s.Actor]; m != nil {
			m[s.Shard] = true
			names[s.Actor][s.Name] = true
		}
	}
	if !shards[mint1][0] {
		t.Errorf("local member has no shard-0 spans: %v", shards[mint1])
	}
	if !shards[mint2][1] {
		t.Errorf("remote member has no shard-1 spans: %v", shards[mint2])
	}
	for _, member := range []uint64{mint1, mint2} {
		for _, want := range []string{"submit", "ground", "commit"} {
			if !names[member][want] {
				t.Errorf("member %d missing %q span (has %v)", member, want, names[member])
			}
		}
	}
}

// fakeNode is a scripted peer server: it speaks just enough of the wire
// protocol to be dialed by a real server's peer connection, records every
// 2PC message it is sent, and answers status inquiries from a per-group
// script ("pending" for any group not in it). It lets a test play the other
// side of the protocol against ONE real server.
type fakeNode struct {
	addr                             string
	offers, prepares, votes, decides chan dist.Envelope

	mu       sync.Mutex
	statuses map[uint64]dist.Status
}

// script makes the node answer status inquiries about st.Group with st.
func (f *fakeNode) script(st dist.Status) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.statuses == nil {
		f.statuses = make(map[uint64]dist.Status)
	}
	f.statuses[st.Group] = st
}

func (f *fakeNode) status(group uint64) dist.Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	if st, ok := f.statuses[group]; ok {
		return st
	}
	return dist.Status{Group: group, Pending: true}
}

func startFakeNode(t *testing.T) *fakeNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	inbox := func() chan dist.Envelope { return make(chan dist.Envelope, 16) } // far more than any one test sends of a kind
	f := &fakeNode{addr: ln.Addr().String(), offers: inbox(), prepares: inbox(), votes: inbox(), decides: inbox()}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go f.serve(nc)
		}
	}()
	return f
}

func (f *fakeNode) serve(nc net.Conn) {
	defer nc.Close()
	for {
		var req wire.Request
		if wire.ReadInto(nc, &req) != nil {
			return
		}
		resp := wire.Response{ID: req.ID, OK: true, Version: wire.ProtocolVersion}
		switch req.Op {
		case wire.OpShardMsg:
			msg, err := wire.DecodeEnvelope(req.Body)
			if err != nil {
				resp = wire.Response{ID: req.ID, Error: err.Error()}
				break
			}
			ch := f.decides
			switch {
			case msg.Offer != nil:
				ch = f.offers
			case msg.Prepare != nil:
				ch = f.prepares
			case msg.Vote != nil:
				ch = f.votes
			}
			select {
			case ch <- msg:
			default: // re-offers on every retry tick: the first few suffice
			}
		case wire.OpShardStatus:
			resp.Body = wire.AppendStatus(nil, f.status(req.Handle))
		}
		if wire.WriteFrame(nc, resp) != nil {
			return
		}
	}
}

func await(t *testing.T, ch chan dist.Envelope, what string) dist.Envelope {
	t.Helper()
	select {
	case msg := <-ch:
		return msg
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		return dist.Envelope{}
	}
}

// slotOffer is the offer of a user who wants the same slot as partner,
// grounded over a two-slot table: two of them with swapped names unify.
func slotOffer(t *testing.T, node string, id uint64, user, partner string) *dist.Offer {
	t.Helper()
	q := &eq.Query{
		Head:   []eq.Atom{eq.NewAtom("R", eq.CStr(user), eq.V("s"))},
		Post:   []eq.Atom{eq.NewAtom("R", eq.CStr(partner), eq.V("s"))},
		Body:   []eq.Atom{eq.NewAtom("Slots", eq.V("s"))},
		Choose: 1,
	}
	gs, err := eq.Ground(q, eq.MapReader{"Slots": {{types.Int(1)}, {types.Int(2)}}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &dist.Offer{Node: node, ID: id, Query: q, Grounds: gs, Tables: []string{"Slots"}, CSN: 7,
		Deadline: time.Now().Add(time.Minute)}
}

// TestEveryEnvelopeKindLoopbackAndTCP drives each of the four 2PC message
// kinds into one real server's deliver twice — through send's loopback
// branch, and over a TCP connection through the shard-message op — and
// demands the same effects either way. The test plays the peer: a fake
// participant against a real coordinator (offer, vote), then a fake
// coordinator against a real participant (prepare, decide). The
// dist.prepare and dist.vote failpoints are armed with a zero delay, so
// each firing is counted without losing the message.
func TestEveryEnvelopeKindLoopbackAndTCP(t *testing.T) {
	type route func(t *testing.T, srv *Server, msg dist.Envelope) error
	routes := []struct {
		name string
		via  route
	}{
		{"loopback", func(t *testing.T, srv *Server, msg dist.Envelope) error {
			return srv.dist.send(srv.dist.self, msg)
		}},
		{"tcp", func(t *testing.T, srv *Server, msg dist.Envelope) error {
			return dialTest(t, srv.dist.self).ShardSend(msg)
		}},
	}
	counted := func(point string) *fault.Registry {
		reg := fault.NewRegistry(1)
		reg.Enable(point, fault.Trigger{EveryNth: 1}, fault.Action{Kind: fault.KindDelay})
		return reg
	}
	listen := func(t *testing.T) net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return ln
	}

	for _, rt := range routes {
		t.Run(rt.name+"/coordinator", func(t *testing.T) {
			fake, ln, reg := startFakeNode(t), listen(t), counted("dist.prepare")
			place := shard.New([]string{ln.Addr().String(), fake.addr})
			db, srv := startShardMember(t, ln, place, 0, entangle.Options{}, Options{Faults: reg})
			counter := func(name string) int64 { return db.Metrics().Snapshot().Counters[name] }

			// An empty message is refused, by either route.
			if err := rt.via(t, srv, dist.Envelope{}); err == nil || !strings.Contains(err.Error(), "empty shard message") {
				t.Fatalf("empty message: err = %v", err)
			}

			// offer x2: the matchmaker pools both, forms one group, and
			// prepares both members at the fake participant.
			for i, o := range []*dist.Offer{
				slotOffer(t, fake.addr, 1, "A", "B"), slotOffer(t, fake.addr, 2, "B", "A"),
			} {
				if err := rt.via(t, srv, dist.Envelope{Offer: o}); err != nil {
					t.Fatalf("offer %d: %v", i, err)
				}
			}
			p1, p2 := await(t, fake.prepares, "prepare").Prepare, await(t, fake.prepares, "prepare").Prepare
			if p1.Group == 0 || p1.Group != p2.Group || p1.Offer+p2.Offer != 3 || p1.CSN != 7 {
				t.Fatalf("prepares: %+v / %+v", p1, p2)
			}
			if sa, sb := p1.Ans.Bindings["s"], p2.Ans.Bindings["s"]; !sa.Equal(sb) {
				t.Fatalf("members answered different slots: %v vs %v", sa, sb)
			}
			if got := counter("dist_offers"); got != 2 {
				t.Errorf("dist_offers = %d, want 2", got)
			}
			if got := reg.Fired(); got != 2 {
				t.Errorf("dist.prepare fired %d times, want 2", got)
			}

			// vote x2: the tally completes, the verdict is commit, and it
			// fans out to the participant.
			for _, p := range []*dist.Prepare{p1, p2} {
				v := &dist.Vote{Group: p.Group, Offer: p.Offer, Node: fake.addr, Yes: true}
				if err := rt.via(t, srv, dist.Envelope{Vote: v}); err != nil {
					t.Fatalf("vote: %v", err)
				}
			}
			if d := await(t, fake.decides, "decide").Decide; d.Group != p1.Group || !d.Commit {
				t.Fatalf("decide = %+v, want commit of group %d", d, p1.Group)
			}
			if got := counter("dist_group_commits"); got != 1 {
				t.Errorf("dist_group_commits = %d, want 1", got)
			}
			if st, err := srv.dist.Status(p1.Group); err != nil || !st.Known || !st.Commit {
				t.Errorf("status = %+v, %v, want known commit", st, err)
			}
		})

		t.Run(rt.name+"/participant", func(t *testing.T) {
			fake, ln, reg := startFakeNode(t), listen(t), counted("dist.vote")
			place := shard.New([]string{fake.addr, ln.Addr().String()})
			place.Overrides = map[string]int{"Minnie": 1}
			db, srv := startShardMember(t, ln, place, 1,
				entangle.Options{RetryInterval: 10 * time.Millisecond}, Options{Faults: reg})
			c := dialTest(t, srv.dist.self)
			setupFlights(t, c)

			// Coordinator-bound kinds are refused here, by either route.
			for _, msg := range []dist.Envelope{
				{Offer: slotOffer(t, fake.addr, 1, "A", "B")}, {Vote: &dist.Vote{Group: 1, Offer: 1, Node: fake.addr}},
			} {
				if err := rt.via(t, srv, msg); err == nil || !strings.Contains(err.Error(), errNotCoordinator.Error()) {
					t.Fatalf("coordinator-bound message at a participant: err = %v", err)
				}
			}

			// Minnie's partner lives elsewhere: her engine offers her query
			// to the (fake) coordinator.
			h, err := c.SubmitScript(flightPair("Minnie", "Mickey"))
			if err != nil {
				t.Fatal(err)
			}
			o := await(t, fake.offers, "offer").Offer
			if o.Node != srv.dist.self || o.Shard != 1 || len(o.Grounds) == 0 {
				t.Fatalf("offer = %+v", o)
			}

			// prepare: the member revalidates, parks prepared, votes yes.
			const group = 77
			g := o.Grounds[0]
			prep := &dist.Prepare{Group: group, Offer: o.ID, CSN: o.CSN, Ans: dist.Answer{Tuples: g.Head, Bindings: g.Bindings()}}
			if err := rt.via(t, srv, dist.Envelope{Prepare: prep}); err != nil {
				t.Fatalf("prepare: %v", err)
			}
			if v := await(t, fake.votes, "vote").Vote; v.Group != group || v.Offer != o.ID || !v.Yes || v.Node != srv.dist.self {
				t.Fatalf("vote = %+v, want yes for offer %d of group %d", v, o.ID, group)
			}
			if got := db.Engine().Parked(); got != 1 {
				t.Fatalf("parked groups = %d, want 1", got)
			}
			if got := reg.Fired(); got != 1 {
				t.Errorf("dist.vote fired %d times, want 1", got)
			}
			if _, done := h.Poll(); done {
				t.Fatal("member settled before the decision")
			}

			// decide: the parked member commits.
			if err := rt.via(t, srv, dist.Envelope{Decide: &dist.Decide{Group: group, Commit: true}}); err != nil {
				t.Fatalf("decide: %v", err)
			}
			if out := h.Wait(); out.Status != entangle.StatusCommitted {
				t.Fatalf("Minnie: %+v", out)
			}
			if got := db.Engine().Parked(); got != 0 {
				t.Errorf("parked groups = %d after the decision, want 0", got)
			}
			// The head atom is FlightRes('Minnie', fno, fdate).
			if b := bookingsOn(t, c, "Minnie"); len(b) != 1 || b[0] != g.Head[0].Args[1].String() {
				t.Errorf("bookings = %v, want the prepared flight %v", b, g.Head[0].Args[1])
			}
		})
	}
}

// TestResolveInDoubtAsksEveryGroup: a participant restarts with two groups
// in doubt — it was killed between prepare and commit. The coordinator
// reports group A pending for as long as it is asked and group B committed.
// A stuck on "pending" must not starve B: B resolves and its withheld
// effect appears, while A stays in doubt and the error names it.
func TestResolveInDoubtAsksEveryGroup(t *testing.T) {
	const groupA, groupB = 701, 702
	path := filepath.Join(t.TempDir(), "part.wal")
	db, err := entangle.Open(entangle.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ExecDDL("CREATE TABLE Pledges (name VARCHAR, amount INT)"); err != nil {
		t.Fatal(err)
	}
	txm := db.Engine().Txm()
	for _, g := range []uint64{groupA, groupB} {
		tx, err := txm.Begin(txn.Serializable)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Insert("Pledges", types.Tuple{types.Str(fmt.Sprint("g", g)), types.Int(1)}); err != nil {
			t.Fatal(err)
		}
		if err := txm.Prepare(tx, g); err != nil {
			t.Fatal(err)
		}
	}
	// "Kill": restart from the log as it stands — both prepares flushed, no
	// verdict for either.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	restart := filepath.Join(t.TempDir(), "restart.wal")
	if err := os.WriteFile(restart, data, 0o644); err != nil {
		t.Fatal(err)
	}

	coord := startFakeNode(t)
	coord.script(dist.Status{Group: groupB, Known: true, Commit: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	place := shard.New([]string{coord.addr, ln.Addr().String()})
	clk := clock.NewFake(time.Now())
	part, srv := startShardMember(t, ln, place, 1, entangle.Options{Path: restart, Clock: clk}, Options{})
	if n := len(part.InDoubt()); n != 2 {
		t.Fatalf("in-doubt transactions after restart = %d, want 2", n)
	}

	// The budget and the waits between passes run on the engine's clock:
	// advance it until the resolver gives up on A.
	resolved := make(chan error, 1)
	go func() { resolved <- srv.ResolveInDoubtGroups(300 * time.Millisecond) }()
	for err = nil; err == nil; {
		select {
		case err = <-resolved:
			if err == nil {
				t.Fatal("resolved every group, want group A left in doubt")
			}
		case <-time.After(time.Millisecond):
			clk.Advance(100 * time.Millisecond)
		}
	}
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(groupA)) || strings.Contains(err.Error(), fmt.Sprint(groupB)) {
		t.Fatalf("err = %v, want one naming group %d only", err, groupA)
	}
	for _, g := range part.InDoubt() {
		if g != groupA {
			t.Errorf("group %d still in doubt", g)
		}
	}
	res, err := part.Query("SELECT name FROM Pledges")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str64() != fmt.Sprint("g", groupB) {
		t.Errorf("Pledges = %v, want group %d's row only", res.Rows, groupB)
	}
}

// TestUnreachablePeerDoesNotStallHealthyPeers pins the peer-dial fix: a
// peer that accepts TCP but never answers the hello used to be dialed
// under the peer-table lock, stalling every send — to every node — for the
// dial timeout. Sends to it must share one dial, and a send to a live
// peer issued meanwhile must return promptly.
func TestUnreachablePeerDoesNotStallHealthyPeers(t *testing.T) {
	hole, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close()
	var dials atomic.Int64
	dialed := make(chan struct{}, 4)
	go func() {
		for {
			nc, err := hole.Accept()
			if err != nil {
				return
			}
			defer nc.Close() // held open, never answered
			dials.Add(1)
			dialed <- struct{}{}
		}
	}()
	live := startFakeNode(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	place := shard.New([]string{ln.Addr().String(), hole.Addr().String(), live.addr})
	_, srv := startShardMember(t, ln, place, 0, entangle.Options{}, Options{})

	stuck := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { stuck <- srv.dist.Decide(hole.Addr().String(), dist.Decide{Group: 1}) }()
	}
	<-dialed // the black-holed dial is now in flight

	start := time.Now()
	if err := srv.dist.Decide(live.addr, dist.Decide{Group: 2, Commit: true}); err != nil {
		t.Fatalf("send to the live peer: %v", err)
	}
	if took := time.Since(start); took > peerDialTimeout/4 {
		t.Fatalf("send to the live peer took %v behind the black-holed dial", took)
	}
	if d := await(t, live.decides, "decide at the live peer").Decide; d.Group != 2 || !d.Commit {
		t.Fatalf("live peer got %+v", d)
	}
	for i := 0; i < 2; i++ {
		if err := <-stuck; err == nil {
			t.Fatal("send to the black-holed peer succeeded")
		}
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("black-holed peer was dialed %d times by 2 concurrent sends, want 1", n)
	}
}
