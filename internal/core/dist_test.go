package core

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dist"
	"repro/internal/obs"
)

// memNet wires two engines and a matchmaker together in-process: the
// participant transports call straight into the matchmaker, and the
// matchmaker's sends call straight into the engines — the full
// cross-shard protocol minus the sockets. All three share one fake clock:
// deadlines, group timers, status polls and the retry tick move only when
// a test advances it.
type memNet struct {
	clock   *clock.Fake
	mm      *dist.Matchmaker
	engines map[string]*Engine
	// dropYes makes the first N yes-votes vanish (a lost vote; the group
	// must time out and abort).
	dropYes atomic.Int64
	// prepareGate, when set for a node, holds prepares to it until the
	// channel is closed (a prepare in flight).
	prepareGate map[string]chan struct{}
	// dropDecide makes every decide sent to that node vanish (a lost
	// decide; the parked member must ask for the verdict).
	dropDecide string
	// statusCalls counts in-doubt Status inquiries.
	statusCalls atomic.Int64
	// failLog makes the coordinator unable to log a commit decision, so
	// every fully-voted group is decided abort.
	failLog atomic.Bool
	// holdOffer, when set, runs before each offer reaches the matchmaker
	// (a send that may stall in transit).
	holdOffer atomic.Pointer[func(node string)]
	// offered counts the offers the matchmaker has taken in.
	offered atomic.Int64
	// metrics is the matchmaker's registry.
	metrics *obs.Registry
}

func (n *memNet) Prepare(node string, p dist.Prepare) error {
	if gate := n.prepareGate[node]; gate != nil {
		<-gate
	}
	n.engines[node].DeliverPrepare(p)
	return nil
}

func (n *memNet) Decide(node string, d dist.Decide) error {
	if node != n.dropDecide {
		n.engines[node].ApplyDecision(d.Group, d.Commit)
	}
	return nil
}

type memTransport struct {
	net  *memNet
	node string
}

func (t *memTransport) Offer(o dist.Offer) {
	if hold := t.net.holdOffer.Load(); hold != nil {
		(*hold)(t.node)
	}
	t.net.mm.AddOffer(&o)
	t.net.offered.Add(1)
}

func (t *memTransport) Vote(v dist.Vote) {
	if v.Yes && t.net.dropYes.Add(-1) >= 0 {
		return
	}
	t.net.mm.HandleVote(v)
}

func (t *memTransport) Status(group uint64) (dist.Status, error) {
	t.net.statusCalls.Add(1)
	return t.net.mm.Decision(group), nil
}

// noTick is a RetryInterval no test outlives: whatever commits under it was
// driven by arrivals and cross-shard wakes alone.
const noTick = time.Hour

// newDistPair builds two sharded engines over disjoint copies of the
// travel schema, joined by an in-memory matchmaker.
func newDistPair(t *testing.T) (*memNet, *Engine, *Engine) {
	return newDistPairRetry(t, 10*time.Millisecond)
}

func newDistPairRetry(t *testing.T, retry time.Duration) (*memNet, *Engine, *Engine) {
	t.Helper()
	net := &memNet{clock: clock.NewFake(time.Now()), engines: make(map[string]*Engine), metrics: obs.NewRegistry()}
	net.mm = dist.New(dist.Options{
		Metrics: net.metrics,
		Send:    net,
		Log: func(_ uint64, commit bool) error {
			if commit && net.failLog.Load() {
				return errors.New("memNet: decision log unavailable")
			}
			return nil
		},
		Clock: net.clock,
	})
	t.Cleanup(net.mm.Close)
	opts := Options{RetryInterval: retry, Clock: net.clock}
	ea := newTestEngine(t, opts)
	eb := newTestEngine(t, opts)
	ea.EnableDist(DistConfig{Shard: 0, Node: "A", Transport: &memTransport{net: net, node: "A"}})
	eb.EnableDist(DistConfig{Shard: 1, Node: "B", Transport: &memTransport{net: net, node: "B"}})
	net.engines["A"] = ea
	net.engines["B"] = eb
	return net, ea, eb
}

// TestDistPairCommitsAcrossEngines is the cross-shard milestone at engine
// level: a flight-booking pair split across two engines with disjoint
// storage coordinates through the matchmaker and commits atomically.
func TestDistPairCommitsAcrossEngines(t *testing.T) {
	_, ea, eb := newDistPair(t)
	h1 := ea.Submit(bookFlightProg("Mickey", "Minnie", 5*time.Second))
	h2 := eb.Submit(bookFlightProg("Minnie", "Mickey", 5*time.Second))
	o1, o2 := h1.Wait(), h2.Wait()
	if o1.Status != StatusCommitted || o2.Status != StatusCommitted {
		t.Fatalf("outcomes = %+v, %+v", o1, o2)
	}
	ra := scanAll(t, ea, "Reservations")
	rb := scanAll(t, eb, "Reservations")
	if len(ra) != 1 || len(rb) != 1 {
		t.Fatalf("reservations = %v / %v", ra, rb)
	}
	if !ra[0][1].Equal(rb[0][1]) || !ra[0][2].Equal(rb[0][2]) {
		t.Fatalf("pair booked different flights across shards: %v vs %v", ra, rb)
	}
	// Each shard committed its member through the distributed group path.
	if ga := ea.Stats().GroupCommits; ga != 1 {
		t.Errorf("shard A GroupCommits = %d, want 1", ga)
	}
	if gb := eb.Stats().GroupCommits; gb != 1 {
		t.Errorf("shard B GroupCommits = %d, want 1", gb)
	}
}

// TestDistLostVoteAbortsThenRetries injects a lost yes-vote: the first
// group must resolve to abort at the group timeout (all-or-nothing —
// nobody commits on a group whose tally never completed), after which both
// members retry and commit in a later group. Without a tick, the abort
// decision alone must wake both members into that retry.
func TestDistLostVoteAbortsThenRetries(t *testing.T) {
	for name, retry := range map[string]time.Duration{"tick": 10 * time.Millisecond, "no tick": noTick} {
		t.Run(name, func(t *testing.T) {
			net, ea, eb := newDistPairRetry(t, retry)
			net.dropYes.Store(1)
			h1 := ea.Submit(bookFlightProg("Mickey", "Minnie", 15*time.Second))
			h2 := eb.Submit(bookFlightProg("Minnie", "Mickey", 15*time.Second))
			// Both members voted (one vote lost) and parked; the group
			// timer then presumes abort.
			eventually(t, 5*time.Second, "both votes", func() bool {
				return net.dropYes.Load() == -1 && ea.Parked()+eb.Parked() == 2
			})
			net.clock.Advance(dist.GroupTimeout)
			o1, o2 := waitWithin(t, h1, 5*time.Second), waitWithin(t, h2, 5*time.Second)
			if o1.Status != StatusCommitted || o2.Status != StatusCommitted {
				t.Fatalf("outcomes = %+v, %+v", o1, o2)
			}
			ra := scanAll(t, ea, "Reservations")
			rb := scanAll(t, eb, "Reservations")
			if len(ra) != 1 || len(rb) != 1 {
				t.Fatalf("reservations = %v / %v (all-or-nothing violated)", ra, rb)
			}
			if !ra[0][1].Equal(rb[0][1]) {
				t.Fatalf("pair split across flights: %v vs %v", ra, rb)
			}
			// The aborted first group rolled somebody back as an averted widow.
			if wa, wb := ea.Stats().WidowsAverted, eb.Stats().WidowsAverted; wa+wb == 0 {
				t.Errorf("WidowsAverted = %d + %d, want > 0", wa, wb)
			}
		})
	}
}

// TestDistSingletonOffersDoNotMatch: two queries that cannot satisfy each
// other's posts just time out on their own shards; the matchmaker must not
// invent a group.
func TestDistSingletonOffersDoNotMatch(t *testing.T) {
	net, ea, eb := newDistPair(t)
	h1 := ea.Submit(bookFlightProg("Mickey", "Goofy", 400*time.Millisecond))
	h2 := eb.Submit(bookFlightProg("Minnie", "Donald", 400*time.Millisecond))
	eventually(t, 5*time.Second, "both arrival runs", func() bool {
		return ea.Stats().Requeues == 1 && eb.Stats().Requeues == 1
	})
	net.clock.Advance(400 * time.Millisecond)
	o1, o2 := h1.Wait(), h2.Wait()
	if o1.Status != StatusTimedOut || o2.Status != StatusTimedOut {
		t.Fatalf("outcomes = %+v, %+v, want timeouts", o1, o2)
	}
	if n := len(scanAll(t, ea, "Reservations")) + len(scanAll(t, eb, "Reservations")); n != 0 {
		t.Fatalf("reservations leaked: %d", n)
	}
}

// waitWithin is Handle.Wait with a deadline: the no-tick tests must fail,
// not hang for an hour, when a wake is lost.
func waitWithin(t *testing.T, h *Handle, d time.Duration) Outcome {
	t.Helper()
	eventually(t, d, "the handle to settle", func() bool { _, ok := h.Poll(); return ok })
	return h.Wait()
}

// eventually polls cond until it holds or d has passed.
func eventually(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
	}
}

// TestDistReofferNeverOvertakesItsVote: a participant's envelopes reach
// the matchmaker in the order its engine emitted them. Minnie's re-offer
// stalls in transit while her group forms from her first offer; her yes
// vote, emitted after it, must not reach the matchmaker first. Had it
// overtaken, the group would be decided before the re-offer arrived, and
// the matchmaker would pool the re-offer of a member that has already
// committed, re-solving it in every later match until its deadline.
func TestDistReofferNeverOvertakesItsVote(t *testing.T) {
	const retry = 10 * time.Millisecond
	net, ea, eb := newDistPairRetry(t, retry)
	pooled := net.metrics.Counter("dist_offers")
	h2 := eb.Submit(bookFlightProg("Minnie", "Mickey", 5*time.Second))
	eventually(t, 5*time.Second, "Minnie's offer", func() bool { return pooled.Load() == 1 })

	inTransit, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	hold := func(node string) {
		if node == "B" {
			once.Do(func() { close(inTransit); <-release })
		}
	}
	net.holdOffer.Store(&hold)
	net.clock.Advance(retry) // the tick re-executes Minnie: she re-offers
	select {
	case <-inTransit:
	case <-time.After(5 * time.Second):
		t.Fatal("Minnie did not re-offer on the tick")
	}
	h1 := ea.Submit(bookFlightProg("Mickey", "Minnie", 5*time.Second))
	// Her first offer matches Mickey's; both members prepare and vote. Let
	// the re-offer go once Minnie's vote has either overtaken it (the group
	// is decided and she has committed) or queued behind it.
	eventually(t, 5*time.Second, "Minnie's vote", func() bool {
		_, settled := h2.Poll()
		return settled || voteQueued(eb)
	})
	close(release)
	o1, o2 := waitWithin(t, h1, 5*time.Second), waitWithin(t, h2, 5*time.Second)
	if o1.Status != StatusCommitted || o2.Status != StatusCommitted {
		t.Fatalf("outcomes = %+v, %+v", o1, o2)
	}
	eventually(t, 5*time.Second, "the re-offer", func() bool { return net.offered.Load() == 3 })
	// One offer per member pooled: the re-offer reached the matchmaker while
	// the group was undecided, was held, and went with the commit.
	if n := pooled.Load(); n != 2 {
		t.Errorf("matchmaker pooled %d offers, want 2: a committed member's re-offer stays pooled", n)
	}
	if n := net.metrics.Counter("dist_groups").Load(); n != 1 {
		t.Errorf("groups = %d, want 1", n)
	}
}

// voteQueued reports whether a vote waits in the engine's outbox.
func voteQueued(e *Engine) bool {
	d := e.dist
	d.outMu.Lock()
	defer d.outMu.Unlock()
	for _, env := range d.outq {
		if env.Vote != nil {
			return true
		}
	}
	return false
}

// TestDistPairCommitsWithoutTick: a delivered prepare wakes its member, so
// a cross-shard pair commits on arrivals and wakes alone.
func TestDistPairCommitsWithoutTick(t *testing.T) {
	_, ea, eb := newDistPairRetry(t, noTick)
	h1 := ea.Submit(bookFlightProg("Mickey", "Minnie", 5*time.Second))
	h2 := eb.Submit(bookFlightProg("Minnie", "Mickey", 5*time.Second))
	o1, o2 := waitWithin(t, h1, time.Second), waitWithin(t, h2, time.Second)
	if o1.Status != StatusCommitted || o2.Status != StatusCommitted {
		t.Fatalf("outcomes = %+v, %+v", o1, o2)
	}
	// Arrival run (offer), then the wake run that consumed the prepare.
	if o1.Attempts != 2 || o2.Attempts != 2 {
		t.Errorf("attempts = %d, %d, want 2, 2", o1.Attempts, o2.Attempts)
	}
}

// TestWakeRunsOnlyTheWokenMember: the wake run holds exactly the member the
// prepare addressed. A partner-less bystander pooled beside it is not
// re-executed and pays no requeue.
func TestWakeRunsOnlyTheWokenMember(t *testing.T) {
	_, ea, eb := newDistPairRetry(t, noTick)
	h1 := ea.Submit(bookFlightProg("Mickey", "Minnie", 5*time.Second))
	eventually(t, time.Second, "Mickey's arrival run", func() bool { return ea.Stats().Requeues == 1 })
	// The bystander's arrival run holds the bystander alone: nothing it asks
	// for can entangle with Mickey, so Mickey stays dormant.
	hb := ea.Submit(bookFlightProg("Goofy", "Pluto", 5*time.Second))
	eventually(t, time.Second, "the bystander's arrival run", func() bool { return ea.Stats().Requeues == 2 })
	before := ea.Stats()

	h2 := eb.Submit(bookFlightProg("Minnie", "Mickey", 5*time.Second))
	o1, o2 := waitWithin(t, h1, time.Second), waitWithin(t, h2, time.Second)
	if o1.Status != StatusCommitted || o2.Status != StatusCommitted {
		t.Fatalf("outcomes = %+v, %+v", o1, o2)
	}
	after := ea.Stats()
	if d := after.Runs - before.Runs; d != 1 {
		t.Errorf("shard A ran %d times for the prepare, want 1 wake run", d)
	}
	// Mickey's wake run parked and committed: no requeue of its own either.
	if d := after.Requeues - before.Requeues; d != 0 {
		t.Errorf("shard A requeues rose by %d during the wake run, want 0", d)
	}
	ea.Close()
	if o := hb.Wait(); o.Attempts != 1 {
		t.Errorf("bystander attempts = %d, want 1 (the wake run re-executed it)", o.Attempts)
	}
}

// TestDistPrepareMidRunIsConsumedWithoutTick: the woken set is
// level-triggered. A prepare that lands while its member's run is still
// executing, after that run's last beforeRound, is consumed by a second run
// as soon as the first returns.
func TestDistPrepareMidRunIsConsumedWithoutTick(t *testing.T) {
	_, ea, eb := newDistPairRetry(t, noTick)
	h1, unwinding, release := submitHeldOpen(ea, bookFlightProg("Mickey", "Minnie", 5*time.Second))
	<-unwinding
	h2 := eb.Submit(bookFlightProg("Minnie", "Mickey", 5*time.Second))
	eventually(t, time.Second, "the prepare to reach the busy shard", func() bool {
		ea.dist.mu.Lock()
		defer ea.dist.mu.Unlock()
		return len(ea.dist.prepares) == 1
	})
	close(release)
	o1, o2 := waitWithin(t, h1, time.Second), waitWithin(t, h2, time.Second)
	if o1.Status != StatusCommitted || o2.Status != StatusCommitted {
		t.Fatalf("outcomes = %+v, %+v", o1, o2)
	}
}

// submitHeldOpen submits prog and holds its first run open while that run
// aborts the blocked member: the member's first attempt closes unwinding
// as it unwinds, then waits for release before the run can finish.
func submitHeldOpen(e *Engine, prog Program) (h *Handle, unwinding, release chan struct{}) {
	unwinding, release = make(chan struct{}), make(chan struct{})
	body, first := prog.Body, true
	prog.Body = func(tx *Tx) error {
		if first {
			first = false
			defer func() { close(unwinding); <-release }()
		}
		return body(tx)
	}
	return e.Submit(prog), unwinding, release
}

// TestDistExpiredReservationVotesNo: a member that settles while holding a
// reservation it never consumed votes it down, so its parked partner is
// released at once instead of holding locks until the group timeout.
func TestDistExpiredReservationVotesNo(t *testing.T) {
	net, ea, eb := newDistPairRetry(t, noTick)
	// A's prepare arrives while A's first run is still unwinding, and A's
	// deadline passes before that run ends: the run's requeue expires A with
	// the reservation stored and unconsumed.
	h1, unwinding, release := submitHeldOpen(ea, bookFlightProg("Mickey", "Minnie", 200*time.Millisecond))
	<-unwinding
	h2 := eb.Submit(bookFlightProg("Minnie", "Mickey", 5*time.Second))
	eventually(t, time.Second, "B to park", func() bool { return eb.Parked() == 1 })
	eventually(t, time.Second, "A's reservation", func() bool {
		ea.dist.mu.Lock()
		defer ea.dist.mu.Unlock()
		return len(ea.dist.prepares) == 1
	})
	net.clock.Advance(200 * time.Millisecond)
	close(release)
	if o := waitWithin(t, h1, 2*time.Second); o.Status != StatusTimedOut {
		t.Fatalf("A outcome = %+v, want timeout", o)
	}
	// B's group aborts on A's no vote and B goes back to retrying.
	eventually(t, 2*time.Second, "B's group to abort", func() bool {
		return eb.Parked() == 0 && eb.Stats().WidowsAverted == 1
	})
	// Arrival run, prepare wake (parked), abort wake (re-offer).
	eventually(t, time.Second, "B's retry", func() bool { return eb.Stats().Runs == 3 })
	if _, done := h2.Poll(); done {
		t.Fatal("B settled; want it pooled and retrying")
	}
}

// TestDistAbortingGroupRetriesAtTickCadence: an abort decision buys each
// member one eager retry; when that retry's group aborts too, the members
// wait for the tick (here: Flush) instead of spinning through groups.
func TestDistAbortingGroupRetriesAtTickCadence(t *testing.T) {
	net, ea, eb := newDistPairRetry(t, noTick)
	net.failLog.Store(true)
	ea.Submit(bookFlightProg("Mickey", "Minnie", time.Minute))
	eb.Submit(bookFlightProg("Minnie", "Mickey", time.Minute))
	aborts := func() int64 { return ea.Stats().WidowsAverted + eb.Stats().WidowsAverted }
	for _, want := range []int64{4, 8} {
		// Two groups abort — the first try and its one eager retry — and
		// then nothing moves until the backstop runs the pools. The wait is
		// generous for loaded -race runs; the quiet-100ms check below is the
		// assertion.
		eventually(t, 10*time.Second, "two groups to abort", func() bool { return aborts() == want })
		time.Sleep(100 * time.Millisecond)
		if got := aborts(); got != want {
			t.Fatalf("averted widows = %d after a quiet 100ms, want %d: aborting groups retry in a hot loop", got, want)
		}
		ea.Flush()
		eb.Flush()
	}
}

// TestDistPollerExitsWithItsGroup: resolving a parked group ends its
// decision poller, long before the status grace would have (the fake clock
// never reaches it).
func TestDistPollerExitsWithItsGroup(t *testing.T) {
	net, ea, eb := newDistPair(t)
	h1 := ea.Submit(bookFlightProg("Mickey", "Minnie", 5*time.Second))
	h2 := eb.Submit(bookFlightProg("Minnie", "Mickey", 5*time.Second))
	if o1, o2 := h1.Wait(), h2.Wait(); o1.Status != StatusCommitted || o2.Status != StatusCommitted {
		t.Fatalf("outcomes = %+v, %+v", o1, o2)
	}
	// Both ApplyDecision calls took their groups out of parked, stopping
	// the poll timers, before the handles settled.
	eventually(t, time.Second, "the decision pollers to exit", func() bool {
		buf := make([]byte, 1<<20)
		return !strings.Contains(string(buf[:runtime.Stack(buf, true)]), "pollDecision")
	})
	net.clock.Advance(statusGrace)
	if n := net.statusCalls.Load(); n != 0 {
		t.Errorf("%d status calls after the groups resolved, want 0", n)
	}
}

// TestDistLostDecideIsPolledAfterTheGrace: a parked member whose decide was
// lost does not ask the coordinator before the status grace has passed on
// the clock, asks once it has, and applies the verdict.
func TestDistLostDecideIsPolledAfterTheGrace(t *testing.T) {
	net, ea, eb := newDistPairRetry(t, noTick)
	net.dropDecide = "A"
	h1 := ea.Submit(bookFlightProg("Mickey", "Minnie", 5*time.Second))
	h2 := eb.Submit(bookFlightProg("Minnie", "Mickey", 5*time.Second))
	if o := waitWithin(t, h2, 5*time.Second); o.Status != StatusCommitted {
		t.Fatalf("B outcome = %+v", o)
	}
	// B committed, so the group was decided commit; A never heard of it.
	if n := ea.Parked(); n != 1 {
		t.Fatalf("A parked groups = %d, want 1", n)
	}
	net.clock.Advance(statusGrace - time.Nanosecond)
	if n := net.statusCalls.Load(); n != 0 {
		t.Fatalf("%d status calls before the grace passed", n)
	}
	net.clock.Advance(time.Nanosecond)
	if n := net.statusCalls.Load(); n != 1 {
		t.Fatalf("%d status calls once the grace passed, want 1", n)
	}
	if o := waitWithin(t, h1, 5*time.Second); o.Status != StatusCommitted {
		t.Fatalf("A outcome = %+v, want the polled commit", o)
	}
	if n := ea.Parked(); n != 0 {
		t.Errorf("A parked groups = %d after the verdict, want 0", n)
	}
}
