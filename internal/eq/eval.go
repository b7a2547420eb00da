package eq

import (
	"fmt"
	"sort"
	"sync"
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
	// Partners maps Pending.ID to the IDs of the other queries whose chosen
	// groundings produced atoms this query's postcondition consumed, or
	// whose postconditions this query's head satisfied — the entanglement
	// operation membership used for group commit and quasi-reads.
	Partners map[int][]int
	// Components partitions the answered queries' Pending.IDs along those
	// partner edges: each component is one entanglement operation — the
	// unit that validates, commits, or aborts together. Components are
	// ordered by their earliest-submitted member, members in submission
	// order; every answered query appears in exactly one.
	Components [][]int
	// GroundTables maps Pending.ID to the tables its grounding read — the
	// quasi-read targets for its partners.
	GroundTables map[int][]string
	// Groundings maps Pending.ID to the full grounding enumeration of each
	// successfully grounded query (cached or fresh). The engine's
	// cross-round grounding cache stores these, keyed by query identity and
	// the CSN fingerprint of the grounded tables.
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
	// GroundWorkers bounds the worker pool that grounds the pending queries
	// concurrently. Values <= 1 ground serially in submission order — the
	// paper's middle-tier behavior, whose per-round cost grows linearly with
	// the pending count (Figure 6(b)). Grounding is read-only against the
	// round's snapshot, so any worker count produces identical groundings;
	// the coordinating-set search always consumes them in submission order,
	// keeping evaluation deterministic either way.
	GroundWorkers int
	// GroundLatency simulates the per-query grounding round trip to the
	// DBMS, applied inside each grounding task (so a parallel pool overlaps
	// the simulated round trips exactly as a real middle tier would overlap
	// its SQL queries). Zero disables the simulation.
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

// Evaluate runs one round of entangled query answering over the pending
// set, per Appendix A: ground every query, search for a coordinating set,
// and classify every query's outcome. The underlying database must not
// change during the round; the caller (the run scheduler) guarantees this
// by evaluating only when every transaction in the run is blocked and by
// holding grounding locks through the posing transactions.
func Evaluate(pending []Pending, opts EvalOptions) *Result {
	res := &Result{
		Answers:      make(map[int]*Answer, len(pending)),
		Partners:     make(map[int][]int),
		GroundTables: make(map[int][]string),
		Groundings:   make(map[int][]*Grounding, len(pending)),
	}
	queries := make([]*Query, len(pending))
	for i, p := range pending {
		queries[i] = p.Query
	}
	groundStart := time.Now()
	groundings, errs := GroundAll(pending, opts)
	res.GroundDur = time.Since(groundStart)
	errored := make(map[int]error)
	for i, p := range pending {
		if errs[i] != nil {
			errored[i] = errs[i]
			continue
		}
		res.GroundTables[p.ID] = p.Query.BodyTables()
		res.Groundings[p.ID] = groundings[i]
	}

	// The pipeline barrier: however the groundings were produced, the
	// coordinating-set search consumes them indexed by submission order, so
	// its choices are independent of worker scheduling.
	solveStart := time.Now()
	chosen, solveStats := SolveBudget(groundings, opts.SolveBudget)
	res.Solve = solveStats
	res.SolveDur = time.Since(solveStart)

	// Entanglement membership: queries whose chosen groundings exchange
	// atoms. Map each chosen head atom to its producers, then connect every
	// chosen postcondition's consumer to them.
	producerOf := make(map[string][]int)
	for i, gi := range chosen {
		if gi < 0 {
			continue
		}
		for _, h := range groundings[i][gi].Head {
			producerOf[h.Key()] = append(producerOf[h.Key()], i)
		}
	}
	partnerSets := make([]map[int]bool, len(pending))
	for i := range partnerSets {
		partnerSets[i] = make(map[int]bool)
	}
	sets := NewDisjointSets(len(pending))
	for i, gi := range chosen {
		if gi < 0 {
			continue
		}
		for _, p := range groundings[i][gi].Post {
			for _, j := range producerOf[p.Key()] {
				if j != i {
					partnerSets[i][j] = true
					partnerSets[j][i] = true
					sets.Union(i, j)
				}
			}
		}
	}
	// Unanswered queries exchange nothing and stay singletons.
	for _, set := range sets.Sets() {
		if chosen[set[0]] < 0 {
			continue
		}
		ids := make([]int, len(set))
		for k, i := range set {
			ids[k] = pending[i].ID
		}
		res.Components = append(res.Components, ids)
	}

	formable := FormableSet(queries)
	for i, p := range pending {
		if err, bad := errored[i]; bad {
			res.Answers[p.ID] = &Answer{Status: Errored, Err: err}
			continue
		}
		gi := chosen[i]
		if gi >= 0 {
			g := groundings[i][gi]
			bindings := make(map[string]types.Value, len(g.Val))
			for k, v := range g.Val {
				bindings[k] = v
			}
			res.Answers[p.ID] = &Answer{Status: Answered, Tuples: g.Head, Bindings: bindings}
			for j := range partnerSets[i] {
				res.Partners[p.ID] = append(res.Partners[p.ID], pending[j].ID)
			}
			sort.Ints(res.Partners[p.ID])
			continue
		}
		if formable[i] {
			res.Answers[p.ID] = &Answer{Status: EmptyAnswer}
		} else {
			res.Answers[p.ID] = &Answer{Status: NoPartner}
		}
	}
	return res
}

// GroundAll runs the grounding stage of an evaluation round: it enumerates
// the groundings of every pending query, either serially in submission
// order or across a bounded worker pool (EvalOptions.GroundWorkers). The
// returned slices are indexed by the pending set's positions; position i is
// written only by the task grounding query i, so the parallel path needs no
// locks and yields byte-identical output to the serial one. Each task also
// pays EvalOptions.GroundLatency, the simulated DBMS round trip.
func GroundAll(pending []Pending, opts EvalOptions) ([][]*Grounding, []error) {
	groundings := make([][]*Grounding, len(pending))
	errs := make([]error, len(pending))
	groundOne := func(i int) {
		p := pending[i]
		if p.HasCached {
			// Supplied groundings replace the grounding round trip
			// entirely — no reader access, no simulated latency.
			groundings[i] = p.Cached
			return
		}
		if opts.GroundLatency > 0 {
			time.Sleep(opts.GroundLatency)
		}
		if p.Reader == nil {
			errs[i] = fmt.Errorf("eq: query %d has no reader", p.ID)
			return
		}
		gs, err := GroundWith(p.Query, p.Reader, GroundOptions{
			MaxGroundings: maxRoundGroundings,
			Stats:         opts.Stream,
			PullDur:       opts.PullDur,
		})
		if err != nil {
			errs[i] = err
			return
		}
		groundings[i] = gs
	}

	workers := opts.GroundWorkers
	if workers > len(pending) {
		workers = len(pending)
	}
	if workers <= 1 {
		for i := range pending {
			groundOne(i)
		}
		return groundings, errs
	}
	var wg sync.WaitGroup
	tasks := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range tasks {
				groundOne(i)
			}
		}()
	}
	for i := range pending {
		tasks <- i
	}
	close(tasks)
	wg.Wait()
	return groundings, errs
}
