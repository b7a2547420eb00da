package dist

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/eq"
	"repro/internal/types"
)

// event is one observable matchmaker action, in the order it happened.
type event struct {
	kind    string // "prepare", "decide", "log"
	node    string
	prepare Prepare
	decide  Decide
}

// stubSender is the test double for the participant nodes: it records
// every prepare, decide and decision-log append in one ordered journal and
// wakes waiters on each append.
type stubSender struct {
	mu         sync.Mutex
	events     []event
	changed    chan struct{}
	prepareErr map[string]error // node -> error returned from Prepare
}

func newStubSender() *stubSender { return &stubSender{changed: make(chan struct{}, 1)} }

func (s *stubSender) record(ev event) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
	select {
	case s.changed <- struct{}{}:
	default:
	}
}

func (s *stubSender) Prepare(node string, p Prepare) error {
	s.record(event{kind: "prepare", node: node, prepare: p})
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prepareErr[node]
}

func (s *stubSender) Decide(node string, d Decide) error {
	s.record(event{kind: "decide", node: node, decide: d})
	return nil
}

func (s *stubSender) log(group uint64, commit bool) error {
	s.record(event{kind: "log", decide: Decide{Group: group, Commit: commit}})
	return nil
}

func (s *stubSender) of(kind string) []event {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []event
	for _, ev := range s.events {
		if ev.kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// await blocks until n events of kind were recorded and returns them.
func (s *stubSender) await(t *testing.T, kind string, n int) []event {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		if got := s.of(kind); len(got) >= n {
			return got
		}
		select {
		case <-s.changed:
		case <-deadline:
			t.Fatalf("timed out waiting for %d %s events, have %d", n, kind, len(s.of(kind)))
		}
	}
}

// quiet asserts that no further event of kind arrives within 60ms beyond
// the n already seen: prepares and decides fan out on goroutines of their
// own.
func (s *stubSender) quiet(t *testing.T, kind string, n int) {
	t.Helper()
	time.Sleep(60 * time.Millisecond)
	if got := s.of(kind); len(got) != n {
		t.Fatalf("%s events = %d, want %d: %+v", kind, len(got), n, got)
	}
}

var slots = eq.MapReader{"Slots": {{types.Int(1)}, {types.Int(2)}}}

// epoch is where every test matchmaker's fake clock starts; offers expire a
// minute after it unless a test says otherwise.
var epoch = time.Date(2011, 5, 3, 0, 0, 0, 0, time.UTC)

// pairOffer builds the offer of a user who wants the same slot as partner:
// head R(user, s), post R(partner, s), grounded over the two-slot table.
func pairOffer(t *testing.T, node string, id uint64, user, partner string) *Offer {
	t.Helper()
	q := &eq.Query{
		Head:   []eq.Atom{eq.NewAtom("R", eq.CStr(user), eq.V("s"))},
		Post:   []eq.Atom{eq.NewAtom("R", eq.CStr(partner), eq.V("s"))},
		Body:   []eq.Atom{eq.NewAtom("Slots", eq.V("s"))},
		Choose: 1,
	}
	return groundedOffer(t, node, id, q)
}

// loneOffer builds an offer with no postcondition: answerable on its own.
func loneOffer(t *testing.T, node string, id uint64, user string) *Offer {
	t.Helper()
	q := &eq.Query{
		Head:   []eq.Atom{eq.NewAtom("R", eq.CStr(user), eq.V("s"))},
		Body:   []eq.Atom{eq.NewAtom("Slots", eq.V("s"))},
		Choose: 1,
	}
	return groundedOffer(t, node, id, q)
}

func groundedOffer(t *testing.T, node string, id uint64, q *eq.Query) *Offer {
	t.Helper()
	gs, err := eq.Ground(q, slots, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &Offer{Node: node, ID: id, Query: q, Grounds: gs, Tables: []string{"Slots"}, CSN: 7,
		Deadline: epoch.Add(time.Minute)}
}

// newTestMatchmaker builds a matchmaker on a fake clock that reads epoch;
// time moves only when the test advances the returned clock.
func newTestMatchmaker(t *testing.T, s *stubSender) (*Matchmaker, *clock.Fake) {
	t.Helper()
	clk := clock.NewFake(epoch)
	m := New(Options{Send: s, Log: s.log, Clock: clk})
	t.Cleanup(m.Close)
	return m, clk
}

func TestTwoUnifyingOffersFormOneGroup(t *testing.T) {
	s := newStubSender()
	m, _ := newTestMatchmaker(t, s)
	m.AddOffer(pairOffer(t, "n0", 1, "A", "B"))
	s.quiet(t, "prepare", 0) // a postcondition nobody produces yet
	m.AddOffer(pairOffer(t, "n1", 2, "B", "A"))

	prepares := s.await(t, "prepare", 2)
	s.quiet(t, "prepare", 2)
	byNode := make(map[string]Prepare)
	for _, ev := range prepares {
		byNode[ev.node] = ev.prepare
	}
	a, b := byNode["n0"], byNode["n1"]
	if a.Offer != 1 || b.Offer != 2 {
		t.Fatalf("prepares went to the wrong offers: %+v", prepares)
	}
	if a.Group == 0 || a.Group != b.Group {
		t.Fatalf("group ids %d / %d, want one shared non-zero id", a.Group, b.Group)
	}
	if a.CSN != 7 || b.CSN != 7 {
		t.Errorf("prepare CSNs %d / %d, want the offer CSN 7", a.CSN, b.CSN)
	}
	// The answers are one coordinating set: same slot on both sides.
	if len(a.Ans.Tuples) != 1 || len(b.Ans.Tuples) != 1 {
		t.Fatalf("answers: %+v / %+v", a.Ans, b.Ans)
	}
	if sa, sb := a.Ans.Bindings["s"], b.Ans.Bindings["s"]; !sa.Equal(sb) {
		t.Errorf("members answered different slots: %v vs %v", sa, sb)
	}
	if st := m.Decision(a.Group); !st.Pending || st.Known {
		t.Errorf("formed group status = %+v, want pending", st)
	}
}

func TestLoneAnsweredOfferFormsNoGroup(t *testing.T) {
	s := newStubSender()
	m, _ := newTestMatchmaker(t, s)
	// Each offer is answered by the solver on its own (no postcondition),
	// and a waiting pair member stays unanswered: nothing needs cross-shard
	// coordination.
	m.AddOffer(loneOffer(t, "n0", 1, "A"))
	m.AddOffer(loneOffer(t, "n1", 2, "B"))
	m.AddOffer(pairOffer(t, "n1", 3, "C", "D"))
	s.quiet(t, "prepare", 0)
	s.quiet(t, "decide", 0)
}

func TestNoVoteAbortsEveryMemberAfterLogging(t *testing.T) {
	s := newStubSender()
	m, _ := newTestMatchmaker(t, s)
	m.AddOffer(pairOffer(t, "n0", 1, "A", "B"))
	m.AddOffer(pairOffer(t, "n1", 2, "B", "A"))
	group := s.await(t, "prepare", 2)[0].prepare.Group

	m.HandleVote(Vote{Group: group, Offer: 1, Node: "n0", Yes: true})
	s.quiet(t, "decide", 0) // one yes decides nothing
	m.HandleVote(Vote{Group: group, Offer: 2, Node: "n1", Yes: false})

	decides := s.await(t, "decide", 2)
	s.quiet(t, "decide", 2)
	nodes := make(map[string]bool)
	for _, ev := range decides {
		nodes[ev.node] = true
		if ev.decide.Group != group || ev.decide.Commit {
			t.Errorf("decide = %+v, want abort of group %d", ev.decide, group)
		}
	}
	if !nodes["n0"] || !nodes["n1"] {
		t.Errorf("decides reached %v, want both member nodes", nodes)
	}
	// Decision logged before fan-out: the log entry precedes every decide.
	s.mu.Lock()
	logged := -1
	for i, ev := range s.events {
		if ev.kind == "log" && logged < 0 {
			logged = i
			if ev.decide.Group != group || ev.decide.Commit {
				t.Errorf("logged %+v, want abort of group %d", ev.decide, group)
			}
		}
		if ev.kind == "decide" && logged < 0 {
			t.Errorf("decide at journal position %d precedes the decision log", i)
		}
	}
	s.mu.Unlock()
	if st := m.Decision(group); !st.Known || st.Commit {
		t.Errorf("status after abort = %+v, want known abort", st)
	}
}

func TestUnanimousYesCommitsAfterLogging(t *testing.T) {
	s := newStubSender()
	m, _ := newTestMatchmaker(t, s)
	m.AddOffer(pairOffer(t, "n0", 1, "A", "B"))
	m.AddOffer(pairOffer(t, "n1", 2, "B", "A"))
	group := s.await(t, "prepare", 2)[0].prepare.Group
	m.HandleVote(Vote{Group: group, Offer: 1, Node: "n0", Yes: true})
	m.HandleVote(Vote{Group: group, Offer: 2, Node: "n1", Yes: true})
	for _, ev := range s.await(t, "decide", 2) {
		if !ev.decide.Commit {
			t.Errorf("decide = %+v, want commit", ev.decide)
		}
	}
	s.mu.Lock()
	first := s.events[2] // after the two prepares
	s.mu.Unlock()
	if first.kind != "log" || !first.decide.Commit {
		t.Errorf("first event after the prepares = %+v, want the commit log entry", first)
	}
	if st := m.Decision(group); !st.Known || !st.Commit {
		t.Errorf("status = %+v, want known commit", st)
	}
}

func TestFailedPrepareSendIsANoVote(t *testing.T) {
	s := newStubSender()
	s.prepareErr = map[string]error{"n1": errors.New("unreachable")}
	m, _ := newTestMatchmaker(t, s)
	m.AddOffer(pairOffer(t, "n0", 1, "A", "B"))
	m.AddOffer(pairOffer(t, "n1", 2, "B", "A"))
	for _, ev := range s.await(t, "decide", 2) {
		if ev.decide.Commit {
			t.Errorf("decide = %+v, want abort", ev.decide)
		}
	}
}

// An offer promised to an undecided group must not be pooled a second
// time: matching the copy with another partner would entangle one member
// in two groups — a cross-shard widow. The re-offer is held instead, and
// the abort pools it without the member offering again.
func TestInflightOfferIsNotRepooled(t *testing.T) {
	s := newStubSender()
	m, _ := newTestMatchmaker(t, s)
	group := reofferDuringGroup(t, s, m)

	m.HandleVote(Vote{Group: group, Offer: 2, Node: "n1", Yes: false})
	s.await(t, "decide", 2)
	prepares := s.await(t, "prepare", 4)[2:]
	if prepares[0].prepare.Group == group || prepares[0].prepare.Group != prepares[1].prepare.Group {
		t.Fatalf("second round prepares = %+v, want one fresh group", prepares)
	}
	got := map[string]uint64{prepares[0].node: prepares[0].prepare.Offer, prepares[1].node: prepares[1].prepare.Offer}
	if !reflect.DeepEqual(got, map[string]uint64{"n0": 1, "n2": 9}) {
		t.Errorf("second group members = %v, want n0/1 and n2/9", got)
	}
}

// A commit discards the held re-offer: its member is done, so the waiting
// second B must not be matched with it.
func TestCommitDiscardsHeldOffer(t *testing.T) {
	s := newStubSender()
	m, _ := newTestMatchmaker(t, s)
	group := reofferDuringGroup(t, s, m)

	m.HandleVote(Vote{Group: group, Offer: 1, Node: "n0", Yes: true})
	m.HandleVote(Vote{Group: group, Offer: 2, Node: "n1", Yes: true})
	s.await(t, "decide", 2)
	s.quiet(t, "prepare", 2)
}

// reofferDuringGroup forms the group of A (n0/1) and B (n1/2), then has A
// re-offer while the group is undecided and a second B (n2/9) arrive that
// would match it. It returns the group once no further prepare went out.
func reofferDuringGroup(t *testing.T, s *stubSender, m *Matchmaker) uint64 {
	t.Helper()
	m.AddOffer(pairOffer(t, "n0", 1, "A", "B"))
	m.AddOffer(pairOffer(t, "n1", 2, "B", "A"))
	group := s.await(t, "prepare", 2)[0].prepare.Group
	m.AddOffer(pairOffer(t, "n0", 1, "A", "B"))
	m.AddOffer(pairOffer(t, "n2", 9, "B", "A"))
	s.quiet(t, "prepare", 2)
	return group
}

func TestDecisionIsThreeState(t *testing.T) {
	s := newStubSender()
	clk := clock.NewFake(epoch)
	m := New(Options{Send: s, Clock: clk, Decisions: map[uint64]bool{41: true, 42: false}})
	t.Cleanup(m.Close)

	// Known: recovered from the coordinator log.
	if st := m.Decision(41); !st.Known || !st.Commit || st.Pending {
		t.Errorf("recovered commit = %+v", st)
	}
	if st := m.Decision(42); !st.Known || st.Commit || st.Pending {
		t.Errorf("recovered abort = %+v", st)
	}
	// No record at all: presumed abort.
	if st := m.Decision(99); st.Known || st.Pending || st.Commit {
		t.Errorf("unknown group = %+v, want bare unknown", st)
	}
	// Pending while votes are outstanding; the group timeout then presumes
	// abort and the verdict becomes known.
	m.AddOffer(pairOffer(t, "n0", 1, "A", "B"))
	m.AddOffer(pairOffer(t, "n1", 2, "B", "A"))
	group := s.await(t, "prepare", 2)[0].prepare.Group
	if st := m.Decision(group); st.Known || !st.Pending {
		t.Errorf("open group = %+v, want pending", st)
	}
	clk.Advance(GroupTimeout)
	for _, ev := range s.await(t, "decide", 2) {
		if ev.decide.Commit {
			t.Errorf("overdue group decided %+v, want abort", ev.decide)
		}
	}
	if st := m.Decision(group); !st.Known || st.Commit || st.Pending {
		t.Errorf("overdue group = %+v, want known abort", st)
	}
}

// TestThreeCycleGroupCommitsOrTimesOut is a cross-shard group larger than a
// pair: a 3-cycle of offers from three nodes (A wants B's slot, B wants C's,
// C wants A's) forms one group with one prepare per node. It commits only
// on the third yes vote. With one vote withheld it is still undecided 1ns
// before the group timeout on the clock, and every member is aborted
// exactly at it.
func TestThreeCycleGroupCommitsOrTimesOut(t *testing.T) {
	cycle := func(t *testing.T) (*stubSender, *Matchmaker, *clock.Fake, []event) {
		s := newStubSender()
		m, clk := newTestMatchmaker(t, s)
		m.AddOffer(pairOffer(t, "n0", 1, "A", "B"))
		m.AddOffer(pairOffer(t, "n1", 2, "B", "C"))
		s.quiet(t, "prepare", 0) // the cycle closes only with its last member
		m.AddOffer(pairOffer(t, "n2", 3, "C", "A"))
		prepares := s.await(t, "prepare", 3)
		s.quiet(t, "prepare", 3)
		nodes := make(map[string]bool)
		for _, ev := range prepares {
			nodes[ev.node] = true
			if p := ev.prepare; p.Group == 0 || p.Group != prepares[0].prepare.Group ||
				!p.Ans.Bindings["s"].Equal(prepares[0].prepare.Ans.Bindings["s"]) {
				t.Fatalf("prepares = %+v, want one group answering one slot", prepares)
			}
		}
		if len(nodes) != 3 {
			t.Fatalf("prepares reached %v, want one per node", nodes)
		}
		return s, m, clk, prepares
	}
	yes := func(m *Matchmaker, ev event) {
		m.HandleVote(Vote{Group: ev.prepare.Group, Offer: ev.prepare.Offer, Node: ev.node, Yes: true})
	}
	decided := func(t *testing.T, s *stubSender, commit bool) {
		t.Helper()
		nodes := make(map[string]bool)
		for _, ev := range s.await(t, "decide", 3) {
			nodes[ev.node] = true
			if ev.decide.Commit != commit {
				t.Errorf("decide = %+v, want commit=%v", ev.decide, commit)
			}
		}
		if len(nodes) != 3 {
			t.Errorf("decides reached %v, want all three nodes", nodes)
		}
	}

	t.Run("commit", func(t *testing.T) {
		s, m, _, prepares := cycle(t)
		yes(m, prepares[0])
		yes(m, prepares[1])
		s.quiet(t, "decide", 0)
		yes(m, prepares[2])
		decided(t, s, true)
	})
	t.Run("timeout", func(t *testing.T) {
		s, m, clk, prepares := cycle(t)
		group := prepares[0].prepare.Group
		yes(m, prepares[0])
		yes(m, prepares[1])
		clk.Advance(GroupTimeout - time.Nanosecond)
		if st := m.Decision(group); !st.Pending {
			t.Fatalf("group = %+v 1ns before the timeout, want pending", st)
		}
		s.quiet(t, "decide", 0)
		clk.Advance(time.Nanosecond)
		if st := m.Decision(group); !st.Known || st.Commit {
			t.Fatalf("group = %+v at the timeout, want known abort", st)
		}
		decided(t, s, false)
	})
}

// TestExpiredOfferNeverJoinsAGroup: an offer whose deadline has passed on
// the clock is dropped before matching — its member has timed out at home
// — so the partner that arrives next pairs with nobody, while a fresh offer
// from the same node still matches.
func TestExpiredOfferNeverJoinsAGroup(t *testing.T) {
	s := newStubSender()
	m, clk := newTestMatchmaker(t, s)
	stale := pairOffer(t, "n0", 1, "A", "B")
	stale.Deadline = epoch.Add(time.Second)
	m.AddOffer(stale)
	clk.Advance(time.Second)
	m.AddOffer(pairOffer(t, "n1", 2, "B", "A"))
	s.quiet(t, "prepare", 0)

	m.AddOffer(pairOffer(t, "n0", 3, "A", "B"))
	got := make(map[uint64]bool)
	for _, ev := range s.await(t, "prepare", 2) {
		got[ev.prepare.Offer] = true
	}
	if !got[2] || !got[3] {
		t.Errorf("prepared offers %v, want the live offers 2 and 3", got)
	}
}

// flightOffer builds the offer of a user who wants the same flight to LA as
// partner, grounded over flights with int, date and string columns.
func flightOffer(t *testing.T, node string, id uint64, user, partner string) *Offer {
	t.Helper()
	flights := eq.MapReader{"Flights": {
		{types.Int(122), types.MustDate("2011-05-03"), types.Str("LA")},
		{types.Int(123), types.MustDate("2011-05-04"), types.Str("LA")},
		{types.Int(235), types.MustDate("2011-05-05"), types.Str("Paris")},
	}}
	q := &eq.Query{
		Head:   []eq.Atom{eq.NewAtom("FlightRes", eq.CStr(user), eq.V("fno"), eq.V("fdate"))},
		Post:   []eq.Atom{eq.NewAtom("FlightRes", eq.CStr(partner), eq.V("fno"), eq.V("fdate"))},
		Body:   []eq.Atom{eq.NewAtom("Flights", eq.V("fno"), eq.V("fdate"), eq.V("dest"))},
		Where:  []eq.Constraint{{Left: eq.V("dest"), Op: eq.OpEq, Right: eq.CStr("LA")}},
		Choose: 1,
	}
	gs, err := eq.Ground(q, flights, 0)
	if err != nil || len(gs) != 2 {
		t.Fatalf("ground: %d groundings, %v", len(gs), err)
	}
	return &Offer{Node: node, ID: id, Query: q, Grounds: gs, Tables: []string{"Flights"}, CSN: 7,
		Deadline: epoch.Add(time.Minute)}
}
