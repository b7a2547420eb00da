package eq

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/types"
)

// Status classifies the outcome of one query in an evaluation round,
// following the Appendix B dichotomy.
type Status int

// Evaluation outcomes.
const (
	// Answered: the query received an answer — a grounding of it is in the
	// coordinating set.
	Answered Status = iota
	// EmptyAnswer: a combined query could be formulated (a partner is
	// present) and was evaluated, but no grounding of this query was
	// selected. Per Appendix B this is query success with an empty result;
	// the transaction proceeds.
	EmptyAnswer
	// NoPartner: no combined query including this query could be
	// formulated (no pending query produces its postcondition relations).
	// This is true query failure: the transaction waits for the query to be
	// retried.
	NoPartner
	// Errored: grounding failed (lock timeout, missing relation, ...).
	Errored
)

func (s Status) String() string {
	switch s {
	case Answered:
		return "ANSWERED"
	case EmptyAnswer:
		return "EMPTY"
	case NoPartner:
		return "NO-PARTNER"
	case Errored:
		return "ERROR"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Pending is one query awaiting evaluation, paired with the reader (the
// posing transaction) its grounding reads go through.
type Pending struct {
	// ID is a caller-chosen identifier, unique within the round.
	ID int
	// Query is the entangled query.
	Query *Query
	// Reader supplies the grounding reads. If nil, evaluation fails with
	// Errored.
	Reader CursorReader
	// Cached supplies this query's groundings, computed elsewhere, when
	// HasCached is set: grounding (and its simulated DBMS round trip) is
	// skipped and the Reader is not consulted. The caller is responsible
	// for their currency — the cross-shard matchmaker evaluates the
	// groundings its offers carry, and each participant re-validates its
	// answer against the offer's CSN at prepare time.
	Cached []*Grounding
	// HasCached distinguishes an empty supplied grounding list (a valid
	// result) from none.
	HasCached bool
}

// Answer is the result delivered to one query.
type Answer struct {
	Status Status
	// Tuples are the query's own head atoms instantiated by the chosen
	// grounding — its contribution to the ANSWER relation(s).
	Tuples []GroundAtom
	// Bindings maps the query's Bind variables (and in fact all body
	// variables of the chosen grounding) to their values, for AS @var
	// host-variable binding.
	Bindings map[string]types.Value
	// Err holds the grounding error when Status == Errored.
	Err error
}

// Result is the outcome of one evaluation round.
type Result struct {
	// Answers maps Pending.ID to the query's answer.
	Answers map[int]*Answer
	// Components partitions the answered queries' Pending.IDs along partner
	// edges: two queries are partners when one's chosen grounding produced
	// an atom the other's chosen postcondition consumed. Each component is
	// one entanglement operation, the unit that validates, commits, or
	// aborts together (group commit and quasi-read membership). Components
	// are ordered by their earliest-submitted member, members in submission
	// order; every answered query appears in exactly one.
	Components [][]int
	// GroundTables maps Pending.ID to the tables its grounding read — the
	// quasi-read targets for its partners.
	GroundTables map[int][]string
	// Groundings maps Pending.ID to the full grounding enumeration of each
	// successfully grounded query (cached or fresh). A cross-shard member's
	// offer carries its groundings to the matchmaker.
	Groundings map[int][]*Grounding
	// Solve reports what the coordinating-set search did this round —
	// search nodes spent, component count, and whether any component
	// exhausted its budget and fell back to the greedy closure.
	Solve SolveStats
	// GroundDur and SolveDur are the wall time the round spent in the
	// grounding stage and the coordinating-set search — the per-round
	// span durations the engine's tracer records.
	GroundDur time.Duration
	SolveDur  time.Duration
}

// maxRoundGroundings bounds grounding enumeration per query in an
// evaluation round: the safety valve against runaway cross products.
const maxRoundGroundings = 10000

// EvalOptions tunes evaluation.
type EvalOptions struct {
	// GroundLatency simulates the per-query grounding round trip to the
	// DBMS. Queries ground one after another, as in the paper's middle tier,
	// so a round pays it once per grounded query and its cost grows linearly
	// with the pending count (Figure 6(b)). Zero disables the simulation.
	GroundLatency time.Duration
	// SolveBudget bounds the exact coordinating-set search in nodes per
	// round (0 = DefaultSolveBudget). Negative skips the exact search and
	// runs the greedy closure alone — the pre-exact behavior, kept for
	// ablation benchmarks.
	SolveBudget int
	// Stream, when non-nil, accumulates rows-streamed and peak-batch
	// accounting across the round's grounding pipelines.
	Stream *StreamStats
	// PullDur, when non-nil, observes the duration of every cursor batch
	// pull on the streaming grounding path. Nil (the disabled registry
	// case) adds zero cost — no clock reads, no allocations.
	PullDur *obs.Histogram
}

// Evaluator runs evaluation rounds and keeps between them everything a
// round needs: the groundings' values, atoms and structs and the pointer
// slices over them (one arena), the grounding stream's scratch, and the
// solver's atom table and search buffers. A round then allocates in
// proportion to its answers, not to its groundings. The lifetime rule:
// Result.Groundings stays valid until the evaluator's next Evaluate, while
// every Answer owns its Tuples and Bindings. An Evaluator is not safe for
// concurrent use; the zero value is ready.
type Evaluator struct {
	ar     arena
	stream groundStream
	solver problem
	plan   Plan // the plan Ground builds, reused call to call

	groundings [][]*Grounding
	errs       []error
	producer   []int32 // per atom id: first answered query producing it, or -1
	consumed   []bool  // per atom id: an answered query's postcondition holds it
}

// Evaluate runs one round on a fresh Evaluator, so nothing it returns is
// reused.
func Evaluate(pending []Pending, opts EvalOptions) *Result {
	return new(Evaluator).Evaluate(pending, opts)
}

// Evaluate runs one round of entangled query answering over the pending
// set, per Appendix A: ground every query in submission order, search for a
// coordinating set, and classify every query's outcome. The underlying
// database must not change during the round; the caller (the run
// scheduler) guarantees this by grounding every query through readers
// pinned to one snapshot. The round reuses the memory of the evaluator's
// previous round.
func (ev *Evaluator) Evaluate(pending []Pending, opts EvalOptions) *Result {
	ev.ar.reset()
	ev.stream.ar = &ev.ar
	res := &Result{
		Answers:      make(map[int]*Answer, len(pending)),
		GroundTables: make(map[int][]string),
		Groundings:   make(map[int][]*Grounding, len(pending)),
	}
	groundStart := time.Now()
	groundings := zeroed(ev.groundings, len(pending))
	errs := zeroed(ev.errs, len(pending))
	ev.groundings, ev.errs = groundings, errs
	for i, p := range pending {
		gs, err := ev.groundPending(p, opts)
		if err != nil {
			errs[i] = err
			continue
		}
		groundings[i] = gs
		res.GroundTables[p.ID] = p.Query.BodyTables()
		res.Groundings[p.ID] = gs
	}
	res.GroundDur = time.Since(groundStart)

	solveStart := time.Now()
	chosen, solveStats := ev.solver.solve(groundings, opts.SolveBudget)
	res.Solve = solveStats
	res.SolveDur = time.Since(solveStart)

	res.Components = ev.components(pending, chosen)

	var formable []bool
	for i, p := range pending {
		if err := errs[i]; err != nil {
			res.Answers[p.ID] = &Answer{Status: Errored, Err: err}
			continue
		}
		if gi := chosen[i]; gi >= 0 {
			g := groundings[i][gi]
			res.Answers[p.ID] = &Answer{Status: Answered, Tuples: cloneAtoms(g.Head), Bindings: g.Bindings()}
			continue
		}
		if formable == nil {
			queries := make([]*Query, len(pending))
			for j, q := range pending {
				queries[j] = q.Query
			}
			formable = FormableSet(queries)
		}
		if formable[i] {
			res.Answers[p.ID] = &Answer{Status: EmptyAnswer}
		} else {
			res.Answers[p.ID] = &Answer{Status: NoPartner}
		}
	}
	return res
}

// Ground enumerates q's groundings against r through the evaluator's plan,
// stream and arena, reusing their memory: one relational query. The
// groundings are valid until the evaluator's next Ground, GroundPlan or
// Evaluate.
func (ev *Evaluator) Ground(q *Query, r CursorReader, opts GroundOptions) ([]*Grounding, error) {
	if err := ev.plan.Build(q, r); err != nil {
		return nil, err
	}
	return ev.GroundPlan(&ev.plan, r, nil, opts)
}

// GroundPlan enumerates the groundings of a built plan against r, params[i]
// bound to parameter i, through the evaluator's stream and arena: a
// classical statement's execution. Values past the plan's parameters are
// ignored. The groundings are valid until the evaluator's next Ground,
// GroundPlan or Evaluate.
func (ev *Evaluator) GroundPlan(p *Plan, r CursorReader, params []types.Value, opts GroundOptions) ([]*Grounding, error) {
	if len(params) < p.jp.params {
		return nil, fmt.Errorf("eq: plan takes %d parameters, got %d", p.jp.params, len(params))
	}
	ev.ar.reset()
	ev.stream.ar = &ev.ar
	ev.stream.reset(&p.jp, r, opts)
	copy(ev.stream.vals[len(p.jp.vars):], params)
	return ev.stream.run()
}

// components is the round's entanglement membership: queries whose chosen
// groundings exchange atoms. Every producer of a consumed atom joins its
// first producer, and so does every consumer. Unanswered queries exchange
// nothing and stay singletons, which are dropped.
func (ev *Evaluator) components(pending []Pending, chosen []int) [][]int {
	p := &ev.solver
	first := zeroed(ev.producer, len(p.atoms))
	consumed := zeroed(ev.consumed, len(p.atoms))
	ev.producer, ev.consumed = first, consumed
	for k := range first {
		first[k] = -1
	}
	for i, gi := range chosen {
		if gi < 0 {
			continue
		}
		for _, k := range p.heads(i, gi) {
			if first[k] < 0 {
				first[k] = int32(i)
			}
		}
		for _, k := range p.posts(i, gi) {
			consumed[k] = true
		}
	}
	sets := NewDisjointSets(len(pending))
	for i, gi := range chosen {
		if gi < 0 {
			continue
		}
		for _, k := range p.heads(i, gi) {
			if consumed[k] {
				sets.Union(int(first[k]), i)
			}
		}
		for _, k := range p.posts(i, gi) {
			if first[k] >= 0 {
				sets.Union(i, int(first[k]))
			}
		}
	}
	var out [][]int
	for _, set := range sets.Sets() {
		if chosen[set[0]] < 0 {
			continue
		}
		ids := make([]int, len(set))
		for k, i := range set {
			ids[k] = pending[i].ID
		}
		out = append(out, ids)
	}
	return out
}

// groundPending enumerates one pending query's groundings. Supplied
// groundings replace the grounding round trip entirely: no reader access,
// no simulated latency. Otherwise the query pays EvalOptions.GroundLatency,
// the simulated DBMS round trip, and streams through its reader into the
// evaluator's arena.
func (ev *Evaluator) groundPending(p Pending, opts EvalOptions) ([]*Grounding, error) {
	if p.HasCached {
		return p.Cached, nil
	}
	if opts.GroundLatency > 0 {
		time.Sleep(opts.GroundLatency)
	}
	if p.Reader == nil {
		return nil, fmt.Errorf("eq: query %d has no reader", p.ID)
	}
	if err := p.Query.Validate(); err != nil {
		return nil, err
	}
	ev.stream.reset(planQuery(p.Query, p.Reader), p.Reader, GroundOptions{
		MaxGroundings: maxRoundGroundings,
		Stats:         opts.Stream,
		PullDur:       opts.PullDur,
	})
	return ev.stream.run()
}
