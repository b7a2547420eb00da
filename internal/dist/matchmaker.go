package dist

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/eq"
	"repro/internal/obs"
)

// Sender delivers matchmaker messages to participant nodes. Sends may be
// slow (network); the matchmaker always calls them off its lock. A send
// error on prepare fails the group (abort decision); a lost decide is
// repaired by the participant's status poll.
type Sender interface {
	Prepare(node string, p Prepare) error
	Decide(node string, d Decide) error
}

// Options configures a Matchmaker.
type Options struct {
	// Send delivers prepares and decides to participants. Required.
	Send Sender
	// Log makes a group decision durable BEFORE it fans out — the
	// coordinator's WAL append (flushed). Required for commit decisions;
	// nil logs nothing (tests).
	Log func(group uint64, commit bool) error
	// Clock runs the group timers and expires offers past their
	// deadlines. Nil is clock.Wall; a server passes its engine's clock,
	// whose deadlines the offers carry.
	Clock clock.Clock
	// Tracer, when set, assembles the group's one merged trace from the
	// spans participants export with their votes.
	Tracer *obs.Tracer
	// Self names the participant co-located with this matchmaker (the
	// shard-0 server). Its engine shares Tracer, so its vote spans are not
	// absorbed (they are already there) and its traces are finished by its
	// own settle path, not by the matchmaker.
	Self string
	// Decisions seeds the verdict table with decisions recovered from the
	// coordinator WAL, so restarted participants resolve in-doubt groups.
	Decisions map[uint64]bool
	// Metrics registers the matchmaker counters when set.
	Metrics *obs.Registry
}

// GroupTimeout bounds how long a formed group waits for all votes before
// the coordinator presumes abort.
const GroupTimeout = 3 * time.Second

type groupState struct {
	id      uint64
	members []*Offer
	answers map[offerKey]Answer
	votes   map[offerKey]*bool // nil = outstanding
	timer   clock.Timer        // presumes abort at GroupTimeout; stopped on decision
	decided bool
}

// Matchmaker pools cross-shard offers, forms entanglement groups by
// running the coordinating-set search over the offered groundings (no
// storage access — the offers carry everything), and coordinates the
// two-phase group commit. One matchmaker serves the whole deployment
// (hosted by the shard-0 server).
type Matchmaker struct {
	mu        sync.Mutex
	opts      Options
	closed    bool
	offers    map[offerKey]*Offer
	groups    map[uint64]*groupState
	inflight  map[offerKey]uint64 // -> undecided group holding it
	held      map[offerKey]*Offer // in flight -> its latest re-offer
	decisions map[uint64]bool

	cOffers, cGroups, cCommits, cAborts *obs.Counter
}

// New builds a matchmaker. It starts no goroutine: a group's timer runs
// on the clock, and Close stops the open groups' timers.
func New(opts Options) *Matchmaker {
	opts.Clock = clock.Or(opts.Clock)
	m := &Matchmaker{
		opts:      opts,
		offers:    make(map[offerKey]*Offer),
		groups:    make(map[uint64]*groupState),
		inflight:  make(map[offerKey]uint64),
		held:      make(map[offerKey]*Offer),
		decisions: make(map[uint64]bool),
	}
	for g, c := range opts.Decisions {
		m.decisions[g] = c
	}
	if reg := opts.Metrics; reg != nil {
		m.cOffers = reg.Counter("dist_offers")
		m.cGroups = reg.Counter("dist_groups")
		m.cCommits = reg.Counter("dist_group_commits")
		m.cAborts = reg.Counter("dist_group_aborts")
	}
	return m
}

// Close stops the group timers. Pending groups are left undecided;
// restarted participants resolve them through Status (presumed abort).
func (m *Matchmaker) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	for _, g := range m.groups {
		g.timer.Stop()
	}
}

func bump(c *obs.Counter) {
	if c != nil {
		c.Add(1)
	}
}

// AddOffer pools (or replaces) an offer and attempts matching. Offers
// whose node already withdrew (forget on settle) re-add harmlessly — the
// participant votes no at prepare time.
func (m *Matchmaker) AddOffer(o *Offer) {
	if o == nil || o.Query == nil {
		return
	}
	m.mu.Lock()
	if _, busy := m.inflight[o.key()]; busy {
		// The member is already promised to an undecided group; pooling a
		// second copy could entangle it twice (a cross-shard widow). Hold the
		// latest copy for the decision instead: a member that votes its
		// prepare down re-offers at once, and that re-offer can arrive before
		// the no vote does.
		m.held[o.key()] = o
		m.mu.Unlock()
		return
	}
	m.offers[o.key()] = o
	bump(m.cOffers)
	formed := m.match()
	m.mu.Unlock()
	for _, g := range formed {
		m.sendPrepares(g)
	}
}

// match runs one coordinating-set search over the pooled offers and forms
// a group per answered component. An offer whose deadline has passed is
// dropped first: its member has timed out on its home shard. Caller holds
// m.mu; returns the groups to fan prepares out for.
func (m *Matchmaker) match() []*groupState {
	now := m.opts.Clock.Now()
	keys := make([]offerKey, 0, len(m.offers))
	for k, o := range m.offers {
		if !o.Deadline.IsZero() && !now.Before(o.Deadline) {
			delete(m.offers, k)
		} else {
			keys = append(keys, k)
		}
	}
	if len(keys) < 2 {
		return nil
	}
	slices.SortFunc(keys, func(a, b offerKey) int { // deterministic order
		return cmp.Or(strings.Compare(a.Node, b.Node), cmp.Compare(a.ID, b.ID))
	})
	pend := make([]eq.Pending, len(keys))
	for i, k := range keys {
		o := m.offers[k]
		pend[i] = eq.Pending{ID: i, Query: o.Query, Cached: o.Grounds, HasCached: true}
	}
	res := eq.Evaluate(pend, eq.EvalOptions{})

	var formed []*groupState
	for _, comp := range res.Components {
		if len(comp) < 2 {
			// A lone answered offer needs no cross-shard coordination; its
			// home shard will answer it locally when that becomes true.
			continue
		}
		g := &groupState{
			id:      obs.MintID(),
			answers: make(map[offerKey]Answer, len(comp)),
			votes:   make(map[offerKey]*bool, len(comp)),
		}
		for _, i := range comp {
			o := m.offers[keys[i]]
			a := res.Answers[i]
			g.members = append(g.members, o)
			g.answers[o.key()] = Answer{Tuples: a.Tuples, Bindings: a.Bindings}
			g.votes[o.key()] = nil
			delete(m.offers, keys[i])
			m.inflight[o.key()] = g.id
		}
		g.timer = m.opts.Clock.AfterFunc(GroupTimeout, func() { m.expire(g) })
		m.groups[g.id] = g
		bump(m.cGroups)
		formed = append(formed, g)
	}
	return formed
}

// sendPrepares fans a formed group's prepares out, one goroutine per member,
// so a caller may hold m.mu. A failed send is a no vote: the group aborts
// rather than hang.
func (m *Matchmaker) sendPrepares(g *groupState) {
	for _, o := range g.members {
		o := o
		go func() {
			err := m.opts.Send.Prepare(o.Node, Prepare{
				Group: g.id,
				Offer: o.ID,
				CSN:   o.CSN,
				Ans:   g.answers[o.key()],
			})
			if err != nil {
				m.HandleVote(Vote{Group: g.id, Offer: o.ID, Node: o.Node, Yes: false})
			}
		}()
	}
}

// HandleVote records one participant's vote and decides the group once
// the tally is complete: all yes -> commit, any no -> abort. The decision
// is logged before it fans out.
func (m *Matchmaker) HandleVote(v Vote) {
	if tr := m.opts.Tracer; tr != nil && v.Trace != 0 && len(v.Spans) > 0 && v.Node != m.opts.Self {
		// Remote spans fold into the coordinator's tracer; the co-located
		// participant shares it, so its spans are already here.
		tr.Absorb(v.Trace, v.TraceBegin, v.Spans)
	}
	m.mu.Lock()
	g := m.groups[v.Group]
	if g == nil || g.decided {
		m.mu.Unlock()
		return
	}
	key := offerKey{v.Node, v.Offer}
	if _, tracked := g.votes[key]; !tracked {
		m.mu.Unlock()
		return
	}
	yes := v.Yes
	g.votes[key] = &yes
	// Any no decides immediately, so an undecided group holds only yes
	// votes: a yes decides once none is outstanding.
	for _, vote := range g.votes {
		if yes && vote == nil {
			m.mu.Unlock()
			return
		}
	}
	m.decideLocked(g, yes)
	m.mu.Unlock()
}

// expire is a group timer's callback: a group still collecting votes at
// GroupTimeout is presumed aborted. After Close it leaves the group
// undecided.
func (m *Matchmaker) expire(g *groupState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.closed {
		m.decideLocked(g, false)
	}
}

// decideLocked logs and fans out the verdict. Caller holds m.mu.
func (m *Matchmaker) decideLocked(g *groupState, commit bool) {
	if g.decided {
		return
	}
	g.decided = true
	g.timer.Stop()
	delete(m.groups, g.id)
	for _, o := range g.members {
		delete(m.inflight, o.key())
	}
	if commit && m.opts.Log != nil {
		if err := m.opts.Log(g.id, true); err != nil {
			// The decision could not be made durable: never claim commit.
			// Abort is safe unlogged — it is what presumed abort yields.
			commit = false
		}
	}
	if !commit && m.opts.Log != nil {
		// Best effort: an unlogged abort still resolves correctly
		// (presumed abort), the record just spares participants the wait.
		_ = m.opts.Log(g.id, false)
	}
	m.decisions[g.id] = commit
	if commit {
		bump(m.cCommits)
	} else {
		bump(m.cAborts)
	}
	if tr := m.opts.Tracer; tr != nil {
		now := time.Now()
		ids := make([]uint64, 0, len(g.members))
		for _, o := range g.members {
			if o.Trace != 0 {
				ids = append(ids, o.Trace)
			}
		}
		if len(ids) > 1 {
			canon := tr.Merge(ids)
			// The decision is a remote member's commit point as this tracer
			// sees it (its real commit span stays on its own shard); the
			// co-located participant stamps its own at ApplyDecision.
			if commit {
				for _, o := range g.members {
					if o.Trace != 0 && o.Node != m.opts.Self {
						tr.Span(canon, o.Trace, "commit", now, 0, "2pc")
					}
				}
			}
		}
		// Remote members never Finish on this tracer; do it for them. The
		// co-located participant's settle path provides the rest, so the
		// merged trace rings only after the last local answer span.
		for _, o := range g.members {
			if o.Trace != 0 && o.Node != m.opts.Self {
				tr.Finish(o.Trace, now)
			}
		}
	}
	nodes := make(map[string]bool, len(g.members))
	for _, o := range g.members {
		nodes[o.Node] = true
	}
	d := Decide{Group: g.id, Commit: commit}
	for node := range nodes {
		node := node
		go func() { _ = m.opts.Send.Decide(node, d) }()
	}
	// Re-offers held while the group was undecided: an abort pools them and
	// matches at once, a commit discards them (their members are done).
	repooled := false
	for _, o := range g.members {
		h := m.held[o.key()]
		delete(m.held, o.key())
		if h != nil && !commit {
			m.offers[o.key()] = h
			bump(m.cOffers)
			repooled = true
		}
	}
	if repooled {
		for _, f := range m.match() {
			m.sendPrepares(f)
		}
	}
}

// Decision answers an in-doubt status inquiry: the verdict if decided,
// Pending while the group is still collecting votes, and a bare unknown
// (= presumed abort) when there is no record at all.
func (m *Matchmaker) Decision(group uint64) Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	if commit, ok := m.decisions[group]; ok {
		return Status{Group: group, Known: true, Commit: commit}
	}
	if _, open := m.groups[group]; open {
		return Status{Group: group, Pending: true}
	}
	return Status{Group: group, Known: false}
}
