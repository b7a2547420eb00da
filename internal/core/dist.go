package core

import (
	"errors"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/eq"
	"repro/internal/obs"
)

// ErrInDoubt fails the handle of a transaction that was parked prepared in
// a distributed group when its engine shut down. The prepare record stays
// in the WAL; restart resolves the group against the coordinator's logged
// decision, so the outcome is durable even though this handle is not.
var ErrInDoubt = errors.New("core: shutdown with in-doubt distributed group")

// DistTransport carries the participant side of the cross-shard protocol.
// Offer and Vote are fire-and-forget (delivery failures surface as group
// timeouts, which resolve to abort); Status is the synchronous in-doubt
// inquiry.
type DistTransport interface {
	Offer(o dist.Offer)
	Vote(v dist.Vote)
	Status(group uint64) (dist.Status, error)
}

// DistConfig makes an engine one shard of a partitioned deployment.
type DistConfig struct {
	// Shard is this engine's shard id in the placement map.
	Shard int
	// Node is this engine's address as the matchmaker should call it back.
	Node string
	// Transport reaches the matchmaker. Required.
	Transport DistTransport
	// StatusGrace is how long a parked group waits for the pushed decision
	// before it starts polling Status. Default 1s.
	StatusGrace time.Duration
	// StatusTick is the poll cadence after the grace. Default 300ms.
	StatusTick time.Duration
}

// EnableDist switches the engine's commit path to the distributed
// coordinator. Must be called right after NewEngine, before any Submit:
// the coordinator swap is not synchronized against running work.
func (e *Engine) EnableDist(cfg DistConfig) {
	if cfg.Transport == nil {
		panic("core: EnableDist requires a transport")
	}
	if cfg.StatusGrace <= 0 {
		cfg.StatusGrace = time.Second
	}
	if cfg.StatusTick <= 0 {
		cfg.StatusTick = 300 * time.Millisecond
	}
	d := &distRuntime{
		e:        e,
		cfg:      cfg,
		offers:   make(map[uint64]*liveOffer),
		prepares: make(map[uint64]*dist.Prepare),
		parked:   make(map[uint64]*parkedGroup),
		stop:     make(chan struct{}),
	}
	e.dist = d
	e.coord = &distCoordinator{e: e, d: d, local: &localCoordinator{e: e}}
}

// liveOffer is the local record of an exported offer: what the member
// asked, so a prepare for a different (re-used) offer id is refused, and
// what its answer reads, which the prepare's delivery validates.
type liveOffer struct {
	entry *pending
	query *eq.Query
}

// parkedGroup holds the local members of a prepared distributed group:
// transactions Active, locks held, prepare records flushed, waiting for
// the coordinator's verdict.
type parkedGroup struct {
	members []*member
	done    chan struct{} // closed by take: the group is resolved, its poller exits
}

// distRuntime is the engine's participant state for cross-shard group
// commit. All maps are guarded by mu; members inside parked groups are
// owned by whoever takes the group out.
type distRuntime struct {
	e   *Engine
	cfg DistConfig

	mu       sync.Mutex
	offers   map[uint64]*liveOffer    // offer id -> exported offer
	prepares map[uint64]*dist.Prepare // offer id -> undelivered reservation
	parked   map[uint64]*parkedGroup  // group id -> prepared members
	stop     chan struct{}
	stopped  sync.Once
}

// registerOffer records (or refreshes) the member's offer and returns the
// wire message, or nil when the member should not be offered right now
// (a reservation is already waiting for it).
func (d *distRuntime) registerOffer(m *member) *dist.Offer {
	d.mu.Lock()
	defer d.mu.Unlock()
	ent := m.entry
	if ent.offerID == 0 {
		ent.offerID = obs.MintID()
	}
	if _, reserved := d.prepares[ent.offerID]; reserved {
		return nil
	}
	d.offers[ent.offerID] = &liveOffer{entry: ent, query: m.query}
	return &dist.Offer{
		Node:     d.cfg.Node,
		Shard:    d.cfg.Shard,
		ID:       ent.offerID,
		Trace:    ent.prog.Trace,
		Query:    m.query,
		Grounds:  m.offerGrounds,
		Tables:   m.offerTables,
		CSN:      m.offerCSN,
		Deadline: ent.deadline,
	}
}

// takeReservation claims the pending prepare for a blocked member, if any.
func (d *distRuntime) takeReservation(m *member) (*liveOffer, *dist.Prepare) {
	d.mu.Lock()
	defer d.mu.Unlock()
	oid := m.entry.offerID
	if oid == 0 {
		return nil, nil
	}
	p := d.prepares[oid]
	if p == nil {
		return nil, nil
	}
	delete(d.prepares, oid)
	return d.offers[oid], p
}

// forget withdraws a settled program's offer — a racing prepare for it is
// voted down at delivery — and returns the reservation it held but never
// consumed, which the caller must vote down.
func (d *distRuntime) forget(ent *pending) *dist.Prepare {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.prepares[ent.offerID]
	delete(d.offers, ent.offerID)
	delete(d.prepares, ent.offerID)
	return p
}

func (d *distRuntime) voteNo(group, offer uint64) {
	go d.cfg.Transport.Vote(dist.Vote{Group: group, Offer: offer, Node: d.cfg.Node, Yes: false})
}

// park stores a prepared group. Each member holds one Enter on the
// checkpoint quiescence gate from here to the decision, so the WAL cannot
// be truncated while its prepare record is load-bearing.
func (d *distRuntime) park(group uint64, ms []*member) {
	e := d.e
	for range ms {
		e.txm.Enter()
	}
	d.mu.Lock()
	pg := &parkedGroup{members: ms, done: make(chan struct{})}
	d.parked[group] = pg
	d.mu.Unlock()
	for _, m := range ms {
		v := dist.Vote{Group: group, Offer: m.entry.offerID, Node: d.cfg.Node, Yes: true}
		if begin, spans, ok := e.tracer.Export(m.entry.prog.Trace); ok {
			v.Trace, v.TraceBegin, v.Spans = m.entry.prog.Trace, begin, spans
		}
		go d.cfg.Transport.Vote(v)
	}
	go d.pollDecision(group, pg.done)
}

func (d *distRuntime) take(group uint64) *parkedGroup {
	d.mu.Lock()
	defer d.mu.Unlock()
	pg := d.parked[group]
	if pg != nil {
		delete(d.parked, group)
		close(pg.done)
	}
	return pg
}

// Parked reports how many distributed groups are currently prepared and
// awaiting a decision (in-doubt if we crashed now).
func (e *Engine) Parked() int {
	d := e.dist
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.parked)
}

// pollDecision is the parked group's safety net: if the pushed decision is
// lost, ask the coordinator — after StatusGrace, then every StatusTick. A
// pending group keeps us waiting (the coordinator's timeout will decide
// it); a group the coordinator has no record of is a presumed abort. done
// ends the poller the moment the group is resolved.
func (d *distRuntime) pollDecision(group uint64, done <-chan struct{}) {
	wait := time.NewTimer(d.cfg.StatusGrace)
	defer wait.Stop()
	for {
		select {
		case <-wait.C:
		case <-done:
			return
		case <-d.stop:
			return
		}
		if st, err := d.cfg.Transport.Status(group); err == nil && !st.Pending {
			d.e.ApplyDecision(group, st.Known && st.Commit)
			return
		}
		wait.Reset(d.cfg.StatusTick)
	}
}

// shutdown fails the handles of parked members without aborting their
// transactions: the WAL prepare records stand, and restart resolves them
// against the coordinator's logged decision.
func (d *distRuntime) shutdown() {
	d.stopped.Do(func() { close(d.stop) })
	d.mu.Lock()
	groups := d.parked
	d.parked = make(map[uint64]*parkedGroup)
	d.offers = make(map[uint64]*liveOffer)
	d.prepares = make(map[uint64]*dist.Prepare)
	d.mu.Unlock()
	for _, pg := range groups {
		for _, m := range pg.members {
			d.e.settle(m.entry, d.e.met.failures, Outcome{Status: StatusFailed, Err: ErrInDoubt, Attempts: m.entry.attempts})
			d.e.txm.Exit()
		}
	}
}

// DeliverPrepare hands a matchmaker prepare to the engine (any
// goroutine). The reservation wakes its member: the scheduler re-executes
// that one pool entry on its next turn and the run's beforeRound consumes
// the reservation — no arrival, no tick. A prepare for an unknown or
// already-reserved offer is refused with an immediate no vote.
func (e *Engine) DeliverPrepare(p dist.Prepare) {
	d := e.dist
	if d == nil {
		return
	}
	d.mu.Lock()
	lo := d.offers[p.Offer]
	if _, reserved := d.prepares[p.Offer]; lo == nil || reserved {
		d.mu.Unlock()
		d.voteNo(p.Group, p.Offer)
		return
	}
	d.prepares[p.Offer] = &p
	d.mu.Unlock()
	e.wakeEntry(lo.entry)
}

// ApplyDecision resolves a parked group (any goroutine; idempotent).
// Commit goes through the one commit routine (commitUnits); abort rolls the
// members back and requeues them — averted widows, exactly as when a
// local group member cannot commit — and wakes them, so the retry that
// re-offers them starts now. An entry already woken this way since its last
// arrival- or tick-triggered run is only pooled: a group that aborts every
// time retries at tick cadence, not in a hot loop.
func (e *Engine) ApplyDecision(group uint64, commit bool) {
	d := e.dist
	if d == nil {
		return
	}
	pg := d.take(group)
	if pg == nil {
		return
	}
	if commit {
		e.commitUnits([][]*member{pg.members}, true)
	}
	for _, m := range pg.members {
		if !commit {
			e.requeueAborted(m)
		}
		e.txm.Exit()
	}
}

// requeueAborted rolls back one member of an aborted group and returns its
// entry to the scheduler (any goroutine).
func (e *Engine) requeueAborted(m *member) {
	m.tx.Abort()
	e.bump(e.met.widowsAverted)
	eager := !m.entry.abortWoken
	m.entry.abortWoken = true
	select {
	case e.requeueq <- m.entry:
		if eager {
			e.wakeEntry(m.entry)
		} else {
			e.poke()
		}
	case <-e.done:
		e.settle(m.entry, e.met.failures, Outcome{Status: StatusFailed, Err: ErrEngineClosed, Attempts: m.entry.attempts})
	}
}

// distCoordinator extends the §4 rules across shards: reservations come
// in before each round, unmatched queries go out after it, and members
// matched by the matchmaker commit through the two-phase path. Everyone
// else follows the local rules unchanged.
type distCoordinator struct {
	e     *Engine
	d     *distRuntime
	local *localCoordinator
}

// beforeRound delivers waiting reservations: the matchmaker matched this
// member's offer on another shard, and its answer can resume the member
// now — provided the local grounding is still exactly what was offered.
func (dc *distCoordinator) beforeRound(r *run, blocked []*member) (int, []*member) {
	resumed := 0
	remaining := blocked[:0:0]
	for _, m := range blocked {
		lo, p := dc.d.takeReservation(m)
		if p == nil {
			remaining = append(remaining, m)
			continue
		}
		if dc.deliver(r, m, lo, p) {
			resumed++
		} else {
			remaining = append(remaining, m)
		}
	}
	return resumed, remaining
}

// deliver validates and applies one reservation. The member takes shared
// locks on its query's tables and re-checks that no commit after the CSN
// the answer was computed at changed a column the query reads — the same
// rule as a local answer, and its half of the group-wide validation; every
// other member does the same on its own shard. Unlike a local round, whose
// snapshot is microseconds old, the offer CSN can be many rounds old, so
// the staleness check runs at every isolation level.
func (dc *distCoordinator) deliver(r *run, m *member, lo *liveOffer, p *dist.Prepare) bool {
	e := dc.e
	start := time.Now()
	ok := lo != nil && m.query != nil && m.tx != nil && m.query.String() == lo.query.String() &&
		e.lockAndValidate(m.tx, readsOf(lo.query), p.CSN) == nil
	note := "2pc"
	if !ok {
		note += " stale"
	}
	t := m.entry.prog.Trace
	e.tracer.Span(t, t, "validate", start, time.Since(start), note)
	if !ok {
		dc.d.voteNo(p.Group, p.Offer)
		return false
	}
	snap := e.txm.AcquireSnapshot()
	m.tx.RefreshSnapshot(snap.View)
	snap.Release()
	m.distGroup = p.Group
	r.resume(m, answerMsg{answer: &eq.Answer{Status: eq.Answered, Tuples: p.Ans.Tuples, Bindings: p.Ans.Bindings}})
	return true
}

// afterRound exports this round's unmatched entangled queries as offers.
// Only members with a transaction and no local partners qualify: an
// autocommit member has nothing to prepare, and a locally-entangled
// member's fate already belongs to its local group.
func (dc *distCoordinator) afterRound(r *run) {
	for _, m := range r.blockedMembers() {
		if m.tx == nil || m.query == nil || m.offerGrounds == nil || len(m.partners) != 0 {
			continue
		}
		if o := dc.d.registerOffer(m); o != nil {
			go dc.d.cfg.Transport.Offer(*o)
		}
	}
}

// finalize parks reserved members that reached ready (prepare record,
// yes vote, locks held until the decision) and hands everyone else to the
// local end-of-run rules. A reserved member that cannot prepare must not
// commit locally either — its answer is promised to the group — so it
// aborts and retries.
func (dc *distCoordinator) finalize(r *run) {
	e := dc.e
	rest := make([]*member, 0, len(r.members))
	byGroup := make(map[uint64][]*member)
	for _, m := range r.members {
		if m.distGroup != 0 && m.state == stateReady && m.tx != nil && len(m.partners) == 0 {
			byGroup[m.distGroup] = append(byGroup[m.distGroup], m)
			continue
		}
		if m.distGroup != 0 {
			dc.d.voteNo(m.distGroup, m.entry.offerID)
			if m.state == stateReady {
				if m.tx != nil {
					m.tx.Abort()
				}
				m.state = stateAbortedRetry
			}
		}
		rest = append(rest, m)
	}
	for g, ms := range byGroup {
		prepared := true
		for _, m := range ms {
			if err := e.txm.Prepare(m.tx, g); err != nil {
				prepared = false
				break
			}
		}
		if !prepared {
			for _, m := range ms {
				dc.d.voteNo(g, m.entry.offerID)
				m.tx.Abort()
				m.state = stateAbortedRetry
				rest = append(rest, m)
			}
			continue
		}
		dc.d.park(g, ms)
	}
	dc.local.finalize(&run{e: e, members: rest})
}
