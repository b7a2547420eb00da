package core

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
)

// memNet wires two engines and a matchmaker together in-process: the
// participant transports call straight into the matchmaker, and the
// matchmaker's sends call straight into the engines — the full
// cross-shard protocol minus the sockets.
type memNet struct {
	mm      *dist.Matchmaker
	engines map[string]*Engine
	// dropYes makes the first N yes-votes vanish (a lost vote; the group
	// must time out and abort).
	dropYes atomic.Int64
	// slowPrepare, when set, delays the delivery of prepares to that node.
	slowPrepare map[string]time.Duration
	// failLog makes the coordinator unable to log a commit decision, so
	// every fully-voted group is decided abort.
	failLog atomic.Bool
}

func (n *memNet) Prepare(node string, p dist.Prepare) error {
	time.Sleep(n.slowPrepare[node])
	n.engines[node].DeliverPrepare(p)
	return nil
}

func (n *memNet) Decide(node string, d dist.Decide) error {
	n.engines[node].ApplyDecision(d.Group, d.Commit)
	return nil
}

type memTransport struct {
	net  *memNet
	node string
}

func (t *memTransport) Offer(o dist.Offer) { t.net.mm.AddOffer(&o) }

func (t *memTransport) Vote(v dist.Vote) {
	if v.Yes && t.net.dropYes.Add(-1) >= 0 {
		return
	}
	t.net.mm.HandleVote(v)
}

func (t *memTransport) Status(group uint64) (dist.Status, error) {
	return t.net.mm.Decision(group), nil
}

// noTick is a RetryInterval no test outlives: whatever commits under it was
// driven by arrivals and cross-shard wakes alone.
const noTick = time.Hour

// newDistPair builds two sharded engines over disjoint copies of the
// travel schema, joined by an in-memory matchmaker.
func newDistPair(t *testing.T, groupTimeout time.Duration) (*memNet, *Engine, *Engine) {
	return newDistPairRetry(t, groupTimeout, 10*time.Millisecond)
}

func newDistPairRetry(t *testing.T, groupTimeout, retry time.Duration) (*memNet, *Engine, *Engine) {
	t.Helper()
	net := &memNet{engines: make(map[string]*Engine), slowPrepare: make(map[string]time.Duration)}
	net.mm = dist.New(dist.Options{
		Send: net,
		Log: func(_ uint64, commit bool) error {
			if commit && net.failLog.Load() {
				return errors.New("memNet: decision log unavailable")
			}
			return nil
		},
		GroupTimeout:  groupTimeout,
		SweepInterval: 20 * time.Millisecond,
	})
	t.Cleanup(net.mm.Close)
	opts := Options{RetryInterval: retry}
	ea := newTestEngine(t, opts)
	eb := newTestEngine(t, opts)
	ea.EnableDist(DistConfig{Shard: 0, Node: "A", Transport: &memTransport{net: net, node: "A"},
		StatusGrace: 200 * time.Millisecond, StatusTick: 50 * time.Millisecond})
	eb.EnableDist(DistConfig{Shard: 1, Node: "B", Transport: &memTransport{net: net, node: "B"},
		StatusGrace: 200 * time.Millisecond, StatusTick: 50 * time.Millisecond})
	net.engines["A"] = ea
	net.engines["B"] = eb
	return net, ea, eb
}

// TestDistPairCommitsAcrossEngines is the cross-shard milestone at engine
// level: a flight-booking pair split across two engines with disjoint
// storage coordinates through the matchmaker and commits atomically.
func TestDistPairCommitsAcrossEngines(t *testing.T) {
	_, ea, eb := newDistPair(t, 3*time.Second)
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
// group must resolve to abort (all-or-nothing — nobody commits on a group
// whose tally never completed), after which both members retry and commit
// in a later group. Without a tick, the abort decision alone must wake both
// members into that retry.
func TestDistLostVoteAbortsThenRetries(t *testing.T) {
	for name, retry := range map[string]time.Duration{"tick": 10 * time.Millisecond, "no tick": noTick} {
		t.Run(name, func(t *testing.T) {
			net, ea, eb := newDistPairRetry(t, 300*time.Millisecond, retry)
			net.dropYes.Store(1)
			h1 := ea.Submit(bookFlightProg("Mickey", "Minnie", 15*time.Second))
			h2 := eb.Submit(bookFlightProg("Minnie", "Mickey", 15*time.Second))
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
	_, ea, eb := newDistPair(t, time.Second)
	h1 := ea.Submit(bookFlightProg("Mickey", "Goofy", 400*time.Millisecond))
	h2 := eb.Submit(bookFlightProg("Minnie", "Donald", 400*time.Millisecond))
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

// TestDistPairCommitsWithoutTick: a delivered prepare wakes its member, so
// a cross-shard pair commits on arrivals and wakes alone.
func TestDistPairCommitsWithoutTick(t *testing.T) {
	_, ea, eb := newDistPairRetry(t, 3*time.Second, noTick)
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
	_, ea, eb := newDistPairRetry(t, 3*time.Second, noTick)
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
	_, ea, eb := newDistPairRetry(t, 3*time.Second, noTick)
	unwinding, release := make(chan struct{}), make(chan struct{})
	prog := bookFlightProg("Mickey", "Minnie", 5*time.Second)
	body, first := prog.Body, true
	prog.Body = func(tx *Tx) error {
		if first {
			first = false
			// Hold the first run open while it aborts its blocked member.
			defer func() { close(unwinding); <-release }()
		}
		return body(tx)
	}
	h1 := ea.Submit(prog)
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

// TestDistExpiredReservationVotesNo: a member that settles while holding a
// reservation it never consumed votes it down, so its parked partner is
// released at once instead of holding locks until GroupTimeout.
func TestDistExpiredReservationVotesNo(t *testing.T) {
	const groupTimeout = 30 * time.Second
	net, ea, eb := newDistPairRetry(t, groupTimeout, noTick)
	// A's prepare arrives after A's deadline: the run it wakes expires A
	// with the reservation stored and unconsumed.
	net.slowPrepare["A"] = 400 * time.Millisecond
	h1 := ea.Submit(bookFlightProg("Mickey", "Minnie", 200*time.Millisecond))
	h2 := eb.Submit(bookFlightProg("Minnie", "Mickey", 5*time.Second))
	eventually(t, time.Second, "B to park", func() bool { return eb.Parked() == 1 })
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
	net, ea, eb := newDistPairRetry(t, 3*time.Second, noTick)
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
// decision poller, long before StatusGrace would have.
func TestDistPollerExitsWithItsGroup(t *testing.T) {
	_, ea, eb := newDistPair(t, 3*time.Second)
	for _, e := range []*Engine{ea, eb} {
		e.dist.cfg.StatusGrace = time.Hour
	}
	h1 := ea.Submit(bookFlightProg("Mickey", "Minnie", 5*time.Second))
	h2 := eb.Submit(bookFlightProg("Minnie", "Mickey", 5*time.Second))
	if o1, o2 := h1.Wait(), h2.Wait(); o1.Status != StatusCommitted || o2.Status != StatusCommitted {
		t.Fatalf("outcomes = %+v, %+v", o1, o2)
	}
	// Both ApplyDecision calls have returned (the handles settled inside
	// them); the pollers need only be scheduled to see done closed.
	eventually(t, time.Second, "the decision pollers to exit", func() bool {
		buf := make([]byte, 1<<20)
		return !strings.Contains(string(buf[:runtime.Stack(buf, true)]), "pollDecision")
	})
}
