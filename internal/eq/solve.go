package eq

import (
	"encoding/binary"
	"slices"
)

// Coordinating-set search: given the groundings of a set of pending
// queries, select at most one grounding per query such that every chosen
// postcondition atom appears among the chosen head atoms (Appendix A:
// "the groundings in G′ can all mutually satisfy each other's
// postconditions").
//
// The solver is EXACT: it returns a maximum-size answered set. Appendix A
// only requires *a* coordinating set, but a non-maximal one silently
// leaves answerable queries unanswered the moment coordination structures
// overlap and compete — two hubs contending for one spoke, a marketplace
// of buyers for one seller, chained cycles sharing a member. The earlier
// greedy closure was exact only for disjoint structures.
//
// The search decomposes the pending set into independent components
// (queries connected through produced/consumed atoms), then runs a
// depth-first branch-and-bound per component:
//
//   - Queries are decided in submission order; for each query the
//     groundings are tried in enumeration order, then "unanswered". The
//     first maximum found is kept, which makes the tie-break
//     deterministic: among maximum answered sets, earlier-submitted
//     queries are preferred answered, with their earliest groundings.
//   - An obligation (a chosen postcondition atom not covered by a chosen
//     head) that no undecided query can still produce kills the branch.
//   - Branches that cannot beat the best answered count found so far are
//     pruned.
//   - Obligation states proven unsatisfiable are memoized (conflict
//     learning), so structurally repeated dead ends are cut once.
//
// Every node of the search costs one step against a budget. A component
// whose search exhausts the budget falls back to the original greedy
// closure for that component — still a valid coordinating set, no longer
// guaranteed maximal — and the outcome is reported in SolveStats so the
// engine can surface the degradation instead of hiding it.

// DefaultSolveBudget bounds the total number of search nodes across the
// components of one Solve call. The paper's §5.2 structures (pairs,
// spoke-hubs, cycles of size ≤ 10) solve in tens of nodes; the budget only
// matters for adversarially dense overlap.
const DefaultSolveBudget = 200000

// SolveStats reports what the coordinating-set search did.
type SolveStats struct {
	// Steps is the number of search nodes visited (exact search and greedy
	// fallback combined).
	Steps int
	// Components is the number of independent subproblems the pending set
	// decomposed into.
	Components int
	// Answered is the number of queries that received a grounding.
	Answered int
	// Exhausted reports that at least one component ran out of budget and
	// fell back to the greedy closure: the answered set is valid but no
	// longer guaranteed maximum-size.
	Exhausted bool
}

// Solve returns, for each query, the index of the chosen grounding (or -1
// if the query is left unanswered this round), using the default budget.
func Solve(groundings [][]*Grounding) []int {
	chosen, _ := SolveBudget(groundings, 0)
	return chosen
}

// SolveBudget is Solve with an explicit node budget. budget == 0 uses
// DefaultSolveBudget; budget < 0 skips the exact search entirely and runs
// the greedy closure alone (the pre-exact behavior, kept for ablation).
func SolveBudget(groundings [][]*Grounding, budget int) ([]int, SolveStats) {
	var p problem
	return p.solve(groundings, budget)
}

// solve runs the search over groundings. The chosen slice it returns is
// the problem's own and valid until its next solve.
func (p *problem) solve(groundings [][]*Grounding, budget int) ([]int, SolveStats) {
	if budget == 0 {
		budget = DefaultSolveBudget
	}
	p.build(groundings)
	comps := p.components()

	stats := SolveStats{Components: len(comps)}
	chosen := p.chosen
	g := &greedySolver{p: p, chosen: chosen, chosenHead: p.chosenHead, trail: p.trail[:0]}

	steps := 0
	for _, comp := range comps {
		if budget < 0 || steps >= budget {
			if budget >= 0 {
				stats.Exhausted = true
			}
			g.solveComponent(comp, &steps)
			continue
		}
		ex := &p.exact
		ex.init(p, comp, &steps, budget)
		best, ok := ex.search()
		if ok {
			for pi, qi := range comp {
				chosen[qi] = best[pi]
			}
		}
		ex.finish()
		if !ok {
			// Budget ran out mid-component: discard the partial search and
			// answer this component greedily.
			stats.Exhausted = true
			g.solveComponent(comp, &steps)
		}
	}
	p.trail = g.trail
	stats.Steps = steps
	for _, gi := range chosen {
		if gi >= 0 {
			stats.Answered++
		}
	}
	return chosen, stats
}

// problem is the indexed view of one solve call's input, and the buffers
// the search runs in; an Evaluator keeps one and reuses it round after
// round. Every distinct ground atom is interned to a dense id, so the
// search indexes slices by atom id instead of hashing strings.
type problem struct {
	groundings [][]*Grounding

	atoms []GroundAtom // by id
	table hashIndex    // atoms

	// Grounding f (flat: first[qi]+gi) has head ids ids[off[f]:postAt[f]]
	// and post ids ids[postAt[f]:off[f+1]].
	first  []int32 // per query, then the total
	off    []int32
	postAt []int32
	ids    []int32

	// prods[prodOff[qi]:prodOff[qi+1]] are the distinct ids any grounding
	// of query qi produces, in first-production order.
	prodOff []int32
	prods   []int32
	// producers[prodAt[k]:prodAt[k+1]] are the groundings whose heads hold
	// atom k, in (query, grounding, head position) order.
	prodAt    []int32
	producers []producer

	chosen     []int
	chosenHead []int32 // per atom id, refcount among the greedy closure's chosen heads
	trail      []int
	mark       []int32
	exact      exactSolver
}

type producer struct {
	query, grounding int32
}

// intern returns the id of atom a, assigning the next one to a new atom.
func (p *problem) intern(a GroundAtom) int32 {
	h := a.hash()
	if id := p.table.lookup(h, func(id int32) bool { return p.atoms[id].equal(a) }); id >= 0 {
		return id
	}
	p.atoms = append(p.atoms, a)
	return p.table.add(h)
}

func (p *problem) heads(qi, gi int) []int32 {
	f := p.first[qi] + int32(gi)
	return p.ids[p.off[f]:p.postAt[f]]
}

func (p *problem) posts(qi, gi int) []int32 {
	f := p.first[qi] + int32(gi)
	return p.ids[p.postAt[f]:p.off[f+1]]
}

func (p *problem) prodIDs(qi int) []int32 { return p.prods[p.prodOff[qi]:p.prodOff[qi+1]] }

func (p *problem) producersOf(k int32) []producer {
	return p.producers[p.prodAt[k]:p.prodAt[k+1]]
}

// build interns the round's atoms and lays out the per-grounding,
// per-query and per-atom indexes.
func (p *problem) build(groundings [][]*Grounding) {
	p.groundings = groundings
	p.table.reset()
	p.atoms = p.atoms[:0]
	p.first, p.off, p.postAt, p.ids = p.first[:0], p.off[:0], p.postAt[:0], p.ids[:0]
	for _, gs := range groundings {
		p.first = append(p.first, int32(len(p.off)))
		for _, g := range gs {
			p.off = append(p.off, int32(len(p.ids)))
			for _, a := range g.Head {
				p.ids = append(p.ids, p.intern(a))
			}
			p.postAt = append(p.postAt, int32(len(p.ids)))
			for _, a := range g.Post {
				p.ids = append(p.ids, p.intern(a))
			}
		}
	}
	p.first = append(p.first, int32(len(p.off)))
	p.off = append(p.off, int32(len(p.ids)))
	n := len(p.atoms)

	// Producers, counting-sorted by atom id.
	p.prodAt = zeroed(p.prodAt, n+1)
	for f := range p.postAt {
		for _, k := range p.ids[p.off[f]:p.postAt[f]] {
			p.prodAt[k+1]++
		}
	}
	for k := 0; k < n; k++ {
		p.prodAt[k+1] += p.prodAt[k]
	}
	p.producers = zeroed(p.producers, int(p.prodAt[n]))
	p.mark = zeroed(p.mark, n)
	fill := p.mark // next free producer slot per atom, relative to prodAt
	for qi, gs := range groundings {
		for gi := range gs {
			for _, k := range p.heads(qi, gi) {
				p.producers[p.prodAt[k]+fill[k]] = producer{query: int32(qi), grounding: int32(gi)}
				fill[k]++
			}
		}
	}

	// Distinct produced ids per query: mark[k] == qi+1 once seen.
	clear(p.mark)
	p.prodOff, p.prods = append(p.prodOff[:0], 0), p.prods[:0]
	for qi, gs := range groundings {
		for gi := range gs {
			for _, k := range p.heads(qi, gi) {
				if p.mark[k] != int32(qi+1) {
					p.mark[k] = int32(qi + 1)
					p.prods = append(p.prods, k)
				}
			}
		}
		p.prodOff = append(p.prodOff, int32(len(p.prods)))
	}

	p.chosen = zeroed(p.chosen, len(groundings))
	for i := range p.chosen {
		p.chosen[i] = -1
	}
	p.chosenHead = zeroed(p.chosenHead, n)
	p.exact.size(n)
}

// components partitions the queries into independent subproblems: query a
// and query b belong together when some atom one of them can post is
// producible by the other (directly or transitively). Posts and heads
// never cross a component boundary, so each component solves alone and the
// global maximum is the sum of the component maxima. Components are
// returned ordered by their smallest query index, members ascending —
// submission order, for determinism.
func (p *problem) components() [][]int {
	sets := NewDisjointSets(len(p.groundings))
	for qi, gs := range p.groundings {
		for gi := range gs {
			for _, k := range p.posts(qi, gi) {
				for _, pr := range p.producersOf(k) {
					sets.Union(qi, int(pr.query))
				}
			}
		}
	}
	return sets.Sets()
}

// exactSolver runs the branch-and-bound search over one component. Its
// per-atom arrays span the whole round's atom ids and are all zero between
// components.
type exactSolver struct {
	p    *problem
	comp []int // global query indices, ascending (submission order)

	steps  *int
	budget int

	// Search state. Coverage is boolean per atom: a post atom is satisfied
	// iff some chosen head produces it, however many posts need it or heads
	// provide it — the counts only drive incremental updates.
	cur  []int   // per component position: grounding or -1
	have []int32 // per atom: refcount among chosen heads
	need []int32 // per atom: refcount among chosen posts
	// uncovered lists the atoms with need > 0 and have == 0; uncoveredAt[k]
	// is 1 + k's position in it, 0 when absent.
	uncovered   []int32
	uncoveredAt []int32
	// futureProd[k] counts the undecided component queries that still have
	// a grounding producing k; an uncovered atom with no future producer is
	// a dead obligation.
	futureProd []int32

	best    int
	bestSet []int

	// suffixAnswerable[i] = number of component queries at positions >= i
	// that have at least one grounding (the bound's optimistic remainder).
	suffixAnswerable []int
	// postLastPos[k] = 1 + the last component position whose groundings
	// post k, 0 when none does; heads for atoms past their last post
	// position cannot matter anymore, which keeps memo states small and
	// maximally shared.
	postLastPos []int32

	// failed memoizes obligation states proven unsatisfiable: from this
	// position, with these uncovered obligations and these already-provided
	// heads, no assignment of the remaining queries covers everything.
	failed map[string]bool
	memo   bool
	key    []byte  // stateKey's buffer
	sorted []int32 // stateKey's scratch
}

// size readies the per-atom arrays for n atoms, all zero.
func (ex *exactSolver) size(n int) {
	ex.have = zeroed(ex.have, n)
	ex.need = zeroed(ex.need, n)
	ex.uncoveredAt = zeroed(ex.uncoveredAt, n)
	ex.futureProd = zeroed(ex.futureProd, n)
	ex.postLastPos = zeroed(ex.postLastPos, n)
	ex.uncovered = ex.uncovered[:0]
}

func (ex *exactSolver) init(p *problem, comp []int, steps *int, budget int) {
	ex.p, ex.comp, ex.steps, ex.budget = p, comp, steps, budget
	ex.cur = zeroed(ex.cur, len(comp))
	ex.bestSet = zeroed(ex.bestSet, len(comp))
	for i := range ex.cur {
		ex.cur[i] = -1
		ex.bestSet[i] = -1
	}
	ex.best = -1
	ex.memo = len(comp) >= 3
	for _, qi := range comp {
		for _, k := range p.prodIDs(qi) {
			ex.futureProd[k]++
		}
	}
	ex.suffixAnswerable = zeroed(ex.suffixAnswerable, len(comp)+1)
	for i := len(comp) - 1; i >= 0; i-- {
		n := 0
		if len(p.groundings[comp[i]]) > 0 {
			n = 1
		}
		ex.suffixAnswerable[i] = ex.suffixAnswerable[i+1] + n
	}
	if ex.memo {
		if ex.failed == nil {
			ex.failed = make(map[string]bool)
		}
		clear(ex.failed)
		for i, qi := range comp {
			for gi := range p.groundings[qi] {
				for _, k := range p.posts(qi, gi) {
					ex.postLastPos[k] = int32(i + 1)
				}
			}
		}
	}
}

// finish returns the per-atom arrays to zero for the next component. The
// search undoes every apply, so only futureProd (and postLastPos) still
// hold this component's values — and, after a search the budget cut short,
// nothing else either.
func (ex *exactSolver) finish() {
	for _, qi := range ex.comp {
		for _, k := range ex.p.prodIDs(qi) {
			ex.futureProd[k] = 0
		}
		if ex.memo {
			for gi := range ex.p.groundings[qi] {
				for _, k := range ex.p.posts(qi, gi) {
					ex.postLastPos[k] = 0
				}
			}
		}
	}
}

// search explores the component exhaustively. It returns the maximum
// answered assignment and true, or nil and false when the budget ran out
// before the search completed.
func (ex *exactSolver) search() ([]int, bool) {
	_, _, exhausted := ex.dfs(0, 0)
	if exhausted {
		return nil, false
	}
	return ex.bestSet, true
}

// dfs decides the query at component position i. It reports whether any
// feasible completion was reached, whether some subtree was cut by the
// answered-count bound (such a subtree may hide feasible completions, so
// its parent state must not be memoized as unsatisfiable), and whether the
// budget ran out (aborts the whole component search).
func (ex *exactSolver) dfs(i, answered int) (feasible, bounded, exhausted bool) {
	*ex.steps++
	if *ex.steps > ex.budget {
		return false, false, true
	}
	// Dead-obligation check: an uncovered post no remaining query can
	// produce can never be satisfied.
	for _, k := range ex.uncovered {
		if ex.futureProd[k] == 0 {
			return false, false, false
		}
	}
	if i == len(ex.comp) {
		// futureProd is all zero here, so uncovered is empty: a leaf is
		// always a coordinating set.
		if answered > ex.best {
			ex.best = answered
			copy(ex.bestSet, ex.cur)
		}
		return true, false, false
	}
	if answered+ex.suffixAnswerable[i] <= ex.best {
		return false, true, false
	}
	if ex.memo && ex.failed[string(ex.stateKey(i))] {
		return false, false, false
	}
	qi := ex.comp[i]
	for gi := range ex.p.groundings[qi] {
		ex.apply(i, gi)
		f, b, e := ex.dfs(i+1, answered+1)
		ex.undo(i, gi)
		if e {
			return false, false, true
		}
		feasible = feasible || f
		bounded = bounded || b
	}
	// Leaving the query unanswered costs nothing but the branch.
	ex.decideSkip(qi)
	f, b, e := ex.dfs(i+1, answered)
	ex.undoSkip(qi)
	if e {
		return false, false, true
	}
	feasible = feasible || f
	bounded = bounded || b
	if ex.memo && !feasible && !bounded {
		// Every branch died on obligations (not on the count bound): this
		// obligation state is unsatisfiable regardless of the running best.
		// The search below restored the state, so the key is rebuilt as it
		// was on entry.
		ex.failed[string(ex.stateKey(i))] = true
	}
	return feasible, bounded, false
}

func (ex *exactSolver) cover(k int32) {
	if at := ex.uncoveredAt[k]; at > 0 {
		last := ex.uncovered[len(ex.uncovered)-1]
		ex.uncovered[at-1] = last
		ex.uncoveredAt[last] = at
		ex.uncovered = ex.uncovered[:len(ex.uncovered)-1]
		ex.uncoveredAt[k] = 0
	}
}

func (ex *exactSolver) uncover(k int32) {
	ex.uncovered = append(ex.uncovered, k)
	ex.uncoveredAt[k] = int32(len(ex.uncovered))
}

// apply selects grounding gi for the query at component position i.
func (ex *exactSolver) apply(i, gi int) {
	qi := ex.comp[i]
	ex.cur[i] = gi
	for _, k := range ex.p.prodIDs(qi) {
		ex.futureProd[k]--
	}
	for _, k := range ex.p.heads(qi, gi) {
		if ex.have[k]++; ex.have[k] == 1 {
			ex.cover(k)
		}
	}
	for _, k := range ex.p.posts(qi, gi) {
		if ex.need[k]++; ex.need[k] == 1 && ex.have[k] == 0 {
			ex.uncover(k)
		}
	}
}

// undo reverses apply.
func (ex *exactSolver) undo(i, gi int) {
	qi := ex.comp[i]
	ex.cur[i] = -1
	for _, k := range ex.p.posts(qi, gi) {
		if ex.need[k]--; ex.need[k] == 0 {
			ex.cover(k)
		}
	}
	for _, k := range ex.p.heads(qi, gi) {
		if ex.have[k]--; ex.have[k] == 0 && ex.need[k] > 0 {
			ex.uncover(k)
		}
	}
	for _, k := range ex.p.prodIDs(qi) {
		ex.futureProd[k]++
	}
}

func (ex *exactSolver) decideSkip(qi int) {
	for _, k := range ex.p.prodIDs(qi) {
		ex.futureProd[k]--
	}
}

func (ex *exactSolver) undoSkip(qi int) {
	for _, k := range ex.p.prodIDs(qi) {
		ex.futureProd[k]++
	}
}

// stateKey canonicalizes the subtree-relevant search state at position i:
// the uncovered obligations (all of which need a future head) plus the
// already-provided head atoms that some grounding at position >= i still
// posts, each as sorted atom ids. Counts are irrelevant to the suffix —
// coverage is boolean — so two prefixes reaching the same (position,
// obligations, useful heads) triple have identical suffix feasibility. The
// key is the solver's buffer, valid until the next call.
func (ex *exactSolver) stateKey(i int) []byte {
	key := binary.AppendUvarint(ex.key[:0], uint64(i))
	ids := append(ex.sorted[:0], ex.uncovered...)
	slices.Sort(ids)
	key = binary.AppendUvarint(key, uint64(len(ids)))
	for _, k := range ids {
		key = binary.AppendUvarint(key, uint64(k))
	}
	// The provided heads are those of the groundings chosen at positions
	// before i.
	ids = ids[:0]
	for pos, gi := range ex.cur[:i] {
		if gi < 0 {
			continue
		}
		for _, k := range ex.p.heads(ex.comp[pos], gi) {
			if int(ex.postLastPos[k]) > i {
				ids = append(ids, k)
			}
		}
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	for _, k := range ids {
		key = binary.AppendUvarint(key, uint64(k))
	}
	ex.key, ex.sorted = key, ids
	return key
}

// greedySolver is the pre-exact closure search, kept as the budget
// fallback (and as the ablation baseline): answer queries in submission
// order, transitively selecting producers for each obligation with local
// backtracking. Valid but not guaranteed maximal under competition.
type greedySolver struct {
	p          *problem
	chosen     []int
	chosenHead []int32 // per atom id, refcount among chosen heads
	trail      []int   // query indices tentatively selected, for rollback
	steps      int
}

// greedyBudget bounds the fallback closure independently of the exact
// budget (the closure is near-linear on real structures; the cap only
// guards adversarially dense instances, as it did pre-exact).
const greedyBudget = DefaultSolveBudget

// solveComponent runs the greedy closure over one component. Obligation
// atoms never cross components, so operating on the shared global
// chosen/chosenHead state is equivalent to solving the component alone.
func (g *greedySolver) solveComponent(comp []int, steps *int) {
	for _, qi := range comp {
		if g.chosen[qi] >= 0 {
			continue
		}
		for gi := range g.p.groundings[qi] {
			if g.tryClose(qi, gi) {
				break
			}
		}
	}
	*steps += g.steps
	g.steps = 0
}

// tryClose attempts to select grounding gi for query qi and transitively
// satisfy every obligation. On failure all tentative selections are undone.
func (g *greedySolver) tryClose(qi, gi int) bool {
	g.trail = g.trail[:0]
	ok := g.selectGrounding(qi, gi)
	if !ok {
		for i := len(g.trail) - 1; i >= 0; i-- {
			g.unselect(g.trail[i])
		}
	}
	return ok
}

// selectGrounding marks (qi, gi) chosen and recursively covers its
// postconditions. The trail records selections for rollback.
func (g *greedySolver) selectGrounding(qi, gi int) bool {
	g.steps++
	if g.steps > greedyBudget {
		return false
	}
	g.chosen[qi] = gi
	g.trail = append(g.trail, qi)
	for _, k := range g.p.heads(qi, gi) {
		g.chosenHead[k]++
	}
	for _, k := range g.p.posts(qi, gi) {
		if !g.cover(k) {
			return false
		}
	}
	return true
}

// cover ensures ground atom k is among chosen heads, selecting a producer
// if needed. Alternatives are tried with local backtracking.
func (g *greedySolver) cover(k int32) bool {
	if g.chosenHead[k] > 0 {
		return true
	}
	for _, pr := range g.p.producersOf(k) {
		if g.chosen[pr.query] >= 0 {
			// Already selected with a different grounding; its head did not
			// contain k (else chosenHead would be positive), and a query may
			// contribute at most one grounding.
			continue
		}
		mark := len(g.trail)
		if g.selectGrounding(int(pr.query), int(pr.grounding)) {
			return true
		}
		// Roll back the subtree this attempt selected.
		for i := len(g.trail) - 1; i >= mark; i-- {
			g.unselect(g.trail[i])
		}
		g.trail = g.trail[:mark]
	}
	return false
}

// unselect reverses a selection.
func (g *greedySolver) unselect(qi int) {
	gi := g.chosen[qi]
	if gi < 0 {
		return
	}
	for _, k := range g.p.heads(qi, gi) {
		g.chosenHead[k]--
	}
	g.chosen[qi] = -1
}

// FormableSet reports, for each pending query, whether a combined query
// including it could be formulated from the pending set. The test is
// database-independent, as Appendix B requires: every postcondition atom
// must syntactically unify with a head atom of some other *formable*
// pending query (same relation and arity; constants equal wherever both
// sides are constant). The "formable" qualifier makes the condition a
// greatest fixpoint: queries whose producers cannot themselves join a
// combined query are pruned, so a partially-arrived cycle waits for its
// missing members rather than receiving a premature empty answer.
//
// Donald's postcondition FlightRes('Daffy', x, y) unifies with no head
// produced by Mickey's or Minnie's queries (constant mismatch in the name
// position) on any database, so Donald's query fails and his transaction
// waits — whereas a query whose posts all have unifiable, transitively
// formable producers but whose combined evaluation selects nothing gets an
// empty answer and its transaction proceeds.
func FormableSet(queries []*Query) []bool {
	alive := make([]bool, len(queries))
	for i := range alive {
		alive[i] = true
	}
	for changed := true; changed; {
		changed = false
		for qi, q := range queries {
			if !alive[qi] {
				continue
			}
			for _, p := range q.Post {
				if !hasUnifiableProducer(queries, alive, qi, p) {
					alive[qi] = false
					changed = true
					break
				}
			}
		}
	}
	return alive
}

// hasUnifiableProducer reports whether any other alive pending query has a
// head atom unifiable with post atom p of query qi.
func hasUnifiableProducer(queries []*Query, alive []bool, qi int, p Atom) bool {
	for qj, q := range queries {
		if qj == qi || !alive[qj] {
			continue
		}
		for _, h := range q.Head {
			if atomsUnify(p, h) {
				return true
			}
		}
	}
	return false
}

// CanEntangle reports whether a and b could ever meet in one combined
// query: a postcondition atom of either unifies with a head atom of the
// other — the conservative, database-independent test FormableSet uses.
func CanEntangle(a, b *Query) bool {
	return feeds(a, b) || feeds(b, a)
}

// feeds reports whether some head atom of producer unifies with some
// postcondition atom of consumer.
func feeds(producer, consumer *Query) bool {
	for _, p := range consumer.Post {
		for _, h := range producer.Head {
			if atomsUnify(p, h) {
				return true
			}
		}
	}
	return false
}

// atomsUnify reports syntactic unifiability of two atoms: same relation and
// arity, and wherever both arguments are constants they must be equal.
// (Variables unify with anything; repeated-variable consistency is not
// checked — this is the conservative, database-independent test.)
func atomsUnify(a, b Atom) bool {
	if a.Rel != b.Rel || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i].IsConst() && b.Args[i].IsConst() && !a.Args[i].Value.Equal(b.Args[i].Value) {
			return false
		}
	}
	return true
}
