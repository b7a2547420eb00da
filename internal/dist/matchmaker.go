package dist

import (
	"sort"
	"sync"
	"time"

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
	// GroupTimeout bounds how long a formed group waits for all votes
	// before the coordinator presumes abort. Default 3s.
	GroupTimeout time.Duration
	// SweepInterval is the janitor cadence (expired offers, overdue
	// groups). Default 100ms.
	SweepInterval time.Duration
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

type groupState struct {
	id      uint64
	members []*Offer
	answers map[string]Answer // by offer key
	votes   map[string]*bool  // by offer key; nil = outstanding
	formed  time.Time
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
	offers    map[string]*Offer
	groups    map[uint64]*groupState
	inflight  map[string]uint64 // offer key -> undecided group holding it
	decisions map[uint64]bool
	stop      chan struct{}
	done      chan struct{}

	cOffers, cGroups, cCommits, cAborts *obs.Counter
}

// New builds and starts a matchmaker (janitor goroutine included); Close
// stops it.
func New(opts Options) *Matchmaker {
	if opts.GroupTimeout <= 0 {
		opts.GroupTimeout = 3 * time.Second
	}
	if opts.SweepInterval <= 0 {
		opts.SweepInterval = 100 * time.Millisecond
	}
	m := &Matchmaker{
		opts:      opts,
		offers:    make(map[string]*Offer),
		groups:    make(map[uint64]*groupState),
		inflight:  make(map[string]uint64),
		decisions: make(map[uint64]bool),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
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
	go m.janitor()
	return m
}

// Close stops the janitor. Pending groups are left undecided; restarted
// participants resolve them through Status (presumed abort).
func (m *Matchmaker) Close() {
	close(m.stop)
	<-m.done
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
	if _, busy := m.inflight[o.Key()]; busy {
		// The member is already promised to an undecided group; pooling a
		// second copy could entangle it twice (a cross-shard widow). The
		// participant re-offers after the decision.
		m.mu.Unlock()
		return
	}
	m.offers[o.Key()] = o
	bump(m.cOffers)
	formed := m.match()
	m.mu.Unlock()
	for _, g := range formed {
		m.sendPrepares(g)
	}
}

// match runs one coordinating-set search over the pooled offers and forms
// a group per answered component. Caller holds m.mu; returns the groups to
// fan prepares out for (off-lock).
func (m *Matchmaker) match() []*groupState {
	if len(m.offers) < 2 {
		return nil
	}
	// Deterministic order: sorted by key.
	keys := make([]string, 0, len(m.offers))
	for k := range m.offers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
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
			answers: make(map[string]Answer, len(comp)),
			votes:   make(map[string]*bool, len(comp)),
			formed:  time.Now(),
		}
		for _, i := range comp {
			o := m.offers[keys[i]]
			a := res.Answers[i]
			g.members = append(g.members, o)
			g.answers[o.Key()] = Answer{Tuples: a.Tuples, Bindings: a.Bindings}
			g.votes[o.Key()] = nil
			delete(m.offers, keys[i])
			m.inflight[o.Key()] = g.id
		}
		m.groups[g.id] = g
		bump(m.cGroups)
		formed = append(formed, g)
	}
	return formed
}

// sendPrepares fans a formed group's prepares out. A failed send is a no
// vote: the group aborts rather than hang.
func (m *Matchmaker) sendPrepares(g *groupState) {
	for _, o := range g.members {
		o := o
		go func() {
			err := m.opts.Send.Prepare(o.Node, Prepare{
				Group: g.id,
				Offer: o.ID,
				CSN:   o.CSN,
				Ans:   g.answers[o.Key()],
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
	key := (&Offer{Node: v.Node, ID: v.Offer}).Key()
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

// decideLocked logs and fans out the verdict. Caller holds m.mu.
func (m *Matchmaker) decideLocked(g *groupState, commit bool) {
	if g.decided {
		return
	}
	g.decided = true
	delete(m.groups, g.id)
	for _, o := range g.members {
		delete(m.inflight, o.Key())
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

// janitor expires stale offers and presumes abort for overdue groups.
func (m *Matchmaker) janitor() {
	defer close(m.done)
	t := time.NewTicker(m.opts.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case now := <-t.C:
			m.mu.Lock()
			for k, o := range m.offers {
				if !o.Deadline.IsZero() && now.After(o.Deadline) {
					delete(m.offers, k)
				}
			}
			var overdue []*groupState
			for _, g := range m.groups {
				if now.Sub(g.formed) > m.opts.GroupTimeout {
					overdue = append(overdue, g)
				}
			}
			for _, g := range overdue {
				m.decideLocked(g, false)
			}
			m.mu.Unlock()
		}
	}
}
