package eq

import (
	"sort"
	"strconv"
	"strings"
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
// (queries connected through produced/consumed atom keys), then runs a
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
	if budget == 0 {
		budget = DefaultSolveBudget
	}
	p := newProblem(groundings)
	comps := p.components()

	stats := SolveStats{Components: len(comps)}
	chosen := make([]int, len(groundings))
	for i := range chosen {
		chosen[i] = -1
	}
	g := &greedySolver{p: p, chosen: chosen, chosenHead: make(map[string]int)}

	steps := 0
	for _, comp := range comps {
		if budget < 0 || steps >= budget {
			if budget >= 0 {
				stats.Exhausted = true
			}
			g.solveComponent(comp, &steps)
			continue
		}
		ex := newExactSolver(p, comp, &steps, budget)
		if best, ok := ex.search(); ok {
			for pi, qi := range comp {
				chosen[qi] = best[pi]
			}
		} else {
			// Budget ran out mid-component: discard the partial search and
			// answer this component greedily.
			stats.Exhausted = true
			g.solveComponent(comp, &steps)
		}
	}
	stats.Steps = steps
	for _, gi := range chosen {
		if gi >= 0 {
			stats.Answered++
		}
	}
	return chosen, stats
}

// problem is the shared indexed view of one Solve call's input.
type problem struct {
	groundings [][]*Grounding
	producers  map[string][]producer // ground head atom key -> producers
	headKeys   [][][]string          // [query][grounding] head atom keys
	postKeys   [][][]string          // [query][grounding] post atom keys
	prodKeys   [][]string            // [query] distinct keys any grounding produces
}

type producer struct {
	query, grounding int
}

func newProblem(groundings [][]*Grounding) *problem {
	p := &problem{
		groundings: groundings,
		producers:  make(map[string][]producer),
		headKeys:   make([][][]string, len(groundings)),
		postKeys:   make([][][]string, len(groundings)),
		prodKeys:   make([][]string, len(groundings)),
	}
	for qi, gs := range groundings {
		p.headKeys[qi] = make([][]string, len(gs))
		p.postKeys[qi] = make([][]string, len(gs))
		seen := make(map[string]bool)
		for gi, g := range gs {
			hk := make([]string, len(g.Head))
			for i, h := range g.Head {
				k := h.Key()
				hk[i] = k
				p.producers[k] = append(p.producers[k], producer{query: qi, grounding: gi})
				if !seen[k] {
					seen[k] = true
					p.prodKeys[qi] = append(p.prodKeys[qi], k)
				}
			}
			p.headKeys[qi][gi] = hk
			pk := make([]string, len(g.Post))
			for i, a := range g.Post {
				pk[i] = a.Key()
			}
			p.postKeys[qi][gi] = pk
		}
	}
	return p
}

// components partitions the queries into independent subproblems: query a
// and query b belong together when some atom key one of them can post is
// producible by the other (directly or transitively). Posts and heads
// never cross a component boundary, so each component solves alone and the
// global maximum is the sum of the component maxima. Components are
// returned ordered by their smallest query index, members ascending —
// submission order, for determinism.
func (p *problem) components() [][]int {
	sets := NewDisjointSets(len(p.groundings))
	for qi := range p.groundings {
		for _, pk := range p.postKeys[qi] {
			for _, k := range pk {
				for _, pr := range p.producers[k] {
					sets.Union(qi, pr.query)
				}
			}
		}
	}
	return sets.Sets()
}

// exactSolver runs the branch-and-bound search over one component.
type exactSolver struct {
	p    *problem
	comp []int // global query indices, ascending (submission order)

	steps  *int
	budget int

	// Search state. Coverage is boolean per atom key: a post key is
	// satisfied iff some chosen head produces it, however many posts need
	// it or heads provide it — the counts only drive incremental updates.
	cur       []int          // per component position: grounding or -1
	have      map[string]int // chosen head key -> refcount
	need      map[string]int // chosen post key -> refcount
	uncovered map[string]bool
	// futureProd[k] counts the undecided component queries that still have
	// a grounding producing k; an uncovered key with no future producer is
	// a dead obligation.
	futureProd map[string]int

	best    int
	bestSet []int

	// suffixAnswerable[i] = number of component queries at positions >= i
	// that have at least one grounding (the bound's optimistic remainder).
	suffixAnswerable []int
	// postLastPos[k] = last component position whose groundings post k;
	// heads for keys past their last post position cannot matter anymore,
	// which keeps memo states small and maximally shared.
	postLastPos map[string]int

	// failed memoizes obligation states proven unsatisfiable: from this
	// position, with these uncovered obligations and these already-provided
	// heads, no assignment of the remaining queries covers everything.
	failed map[string]bool
	memo   bool
}

func newExactSolver(p *problem, comp []int, steps *int, budget int) *exactSolver {
	ex := &exactSolver{
		p:          p,
		comp:       comp,
		steps:      steps,
		budget:     budget,
		cur:        make([]int, len(comp)),
		have:       make(map[string]int),
		need:       make(map[string]int),
		uncovered:  make(map[string]bool),
		futureProd: make(map[string]int),
		best:       -1,
		bestSet:    make([]int, len(comp)),
		memo:       len(comp) >= 3,
	}
	for i := range ex.cur {
		ex.cur[i] = -1
		ex.bestSet[i] = -1
	}
	for _, qi := range comp {
		for _, k := range p.prodKeys[qi] {
			ex.futureProd[k]++
		}
	}
	ex.suffixAnswerable = make([]int, len(comp)+1)
	for i := len(comp) - 1; i >= 0; i-- {
		n := 0
		if len(p.groundings[comp[i]]) > 0 {
			n = 1
		}
		ex.suffixAnswerable[i] = ex.suffixAnswerable[i+1] + n
	}
	if ex.memo {
		ex.failed = make(map[string]bool)
		ex.postLastPos = make(map[string]int)
		for i, qi := range comp {
			for _, pks := range p.postKeys[qi] {
				for _, k := range pks {
					ex.postLastPos[k] = i
				}
			}
		}
	}
	return ex
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
	for k := range ex.uncovered {
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
	var key string
	if ex.memo {
		key = ex.stateKey(i)
		if ex.failed[key] {
			return false, false, false
		}
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
		ex.failed[key] = true
	}
	return feasible, bounded, false
}

// apply selects grounding gi for the query at component position i.
func (ex *exactSolver) apply(i, gi int) {
	qi := ex.comp[i]
	ex.cur[i] = gi
	for _, k := range ex.p.prodKeys[qi] {
		ex.futureProd[k]--
	}
	for _, k := range ex.p.headKeys[qi][gi] {
		if ex.have[k]++; ex.have[k] == 1 {
			delete(ex.uncovered, k)
		}
	}
	for _, k := range ex.p.postKeys[qi][gi] {
		if ex.need[k]++; ex.need[k] == 1 && ex.have[k] == 0 {
			ex.uncovered[k] = true
		}
	}
}

// undo reverses apply.
func (ex *exactSolver) undo(i, gi int) {
	qi := ex.comp[i]
	ex.cur[i] = -1
	for _, k := range ex.p.postKeys[qi][gi] {
		if ex.need[k]--; ex.need[k] == 0 {
			delete(ex.need, k)
			delete(ex.uncovered, k)
		}
	}
	for _, k := range ex.p.headKeys[qi][gi] {
		if ex.have[k]--; ex.have[k] == 0 {
			delete(ex.have, k)
			if ex.need[k] > 0 {
				ex.uncovered[k] = true
			}
		}
	}
	for _, k := range ex.p.prodKeys[qi] {
		ex.futureProd[k]++
	}
}

func (ex *exactSolver) decideSkip(qi int) {
	for _, k := range ex.p.prodKeys[qi] {
		ex.futureProd[k]--
	}
}

func (ex *exactSolver) undoSkip(qi int) {
	for _, k := range ex.p.prodKeys[qi] {
		ex.futureProd[k]++
	}
}

// stateKey canonicalizes the subtree-relevant search state at position i:
// the uncovered obligations (all of which need a future head) plus the
// already-provided head keys that some grounding at position >= i still
// posts. Counts are irrelevant to the suffix — coverage is boolean — so
// two prefixes reaching the same (position, obligations, useful heads)
// triple have identical suffix feasibility.
func (ex *exactSolver) stateKey(i int) string {
	keys := make([]string, 0, len(ex.uncovered)+len(ex.have))
	for k := range ex.uncovered {
		keys = append(keys, "u\x00"+k)
	}
	for k := range ex.have {
		if last, ok := ex.postLastPos[k]; ok && last >= i {
			keys = append(keys, "h\x00"+k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	b.Grow(8 + len(keys)*24)
	b.WriteString(strconv.Itoa(i))
	b.WriteByte('\x01')
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('\x01')
	}
	return b.String()
}

// greedySolver is the pre-exact closure search, kept as the budget
// fallback (and as the ablation baseline): answer queries in submission
// order, transitively selecting producers for each obligation with local
// backtracking. Valid but not guaranteed maximal under competition.
type greedySolver struct {
	p          *problem
	chosen     []int
	chosenHead map[string]int // atom key -> refcount among chosen heads
	steps      int
}

// greedyBudget bounds the fallback closure independently of the exact
// budget (the closure is near-linear on real structures; the cap only
// guards adversarially dense instances, as it did pre-exact).
const greedyBudget = DefaultSolveBudget

// solveComponent runs the greedy closure over one component. Obligation
// keys never cross components, so operating on the shared global
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
	var trail []int // query indices tentatively selected, for rollback
	ok := g.selectGrounding(qi, gi, &trail)
	if !ok {
		for i := len(trail) - 1; i >= 0; i-- {
			g.unselect(trail[i])
		}
	}
	return ok
}

// selectGrounding marks (qi, gi) chosen and recursively covers its
// postconditions. The trail records selections for rollback.
func (g *greedySolver) selectGrounding(qi, gi int, trail *[]int) bool {
	g.steps++
	if g.steps > greedyBudget {
		return false
	}
	g.chosen[qi] = gi
	*trail = append(*trail, qi)
	for _, k := range g.p.headKeys[qi][gi] {
		g.chosenHead[k]++
	}
	for _, k := range g.p.postKeys[qi][gi] {
		if !g.cover(k, trail) {
			return false
		}
	}
	return true
}

// cover ensures the ground atom key is among chosen heads, selecting a
// producer if needed. Alternatives are tried with local backtracking.
func (g *greedySolver) cover(key string, trail *[]int) bool {
	if g.chosenHead[key] > 0 {
		return true
	}
	for _, pr := range g.p.producers[key] {
		if g.chosen[pr.query] >= 0 {
			// Already selected with a different grounding; its head did not
			// contain key (else chosenHead would be positive), and a query
			// may contribute at most one grounding.
			continue
		}
		mark := len(*trail)
		if g.selectGrounding(pr.query, pr.grounding, trail) {
			return true
		}
		// Roll back the subtree this attempt selected.
		for i := len(*trail) - 1; i >= mark; i-- {
			g.unselect((*trail)[i])
		}
		*trail = (*trail)[:mark]
	}
	return false
}

// unselect reverses a selection.
func (g *greedySolver) unselect(qi int) {
	gi := g.chosen[qi]
	if gi < 0 {
		return
	}
	for _, k := range g.p.headKeys[qi][gi] {
		if g.chosenHead[k]--; g.chosenHead[k] == 0 {
			delete(g.chosenHead, k)
		}
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
		if !a.Args[i].IsVar && !b.Args[i].IsVar && !a.Args[i].Value.Equal(b.Args[i].Value) {
			return false
		}
	}
	return true
}
