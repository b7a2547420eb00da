package eq

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/types"
)

// Property tests on the coordinating-set solver: whatever Solve selects
// must actually be a coordinating set (Appendix A) — at most one grounding
// per query, and every chosen postcondition atom covered by a chosen head
// atom. We also check determinism and that complete pair/cycle structures
// are always fully answered.

// checkCoordinatingSet verifies the mutual-satisfaction invariant.
func checkCoordinatingSet(t *testing.T, groundings [][]*Grounding, chosen []int) {
	t.Helper()
	heads := make(map[string]bool)
	for qi, gi := range chosen {
		if gi < 0 {
			continue
		}
		if gi >= len(groundings[qi]) {
			t.Fatalf("query %d: chosen index %d out of range", qi, gi)
		}
		for _, h := range groundings[qi][gi].Head {
			heads[h.Key()] = true
		}
	}
	for qi, gi := range chosen {
		if gi < 0 {
			continue
		}
		for _, p := range groundings[qi][gi].Post {
			if !heads[p.Key()] {
				t.Fatalf("query %d grounding %d: postcondition %s not covered by chosen heads", qi, gi, p)
			}
		}
	}
}

// checkComponents evaluates the queries as one round and verifies
// Result.Components against its definition: the closure of the partner
// edges over the answered queries, every answered query in exactly one
// component, no unanswered query in any, in submission order. IDs are
// deliberately not the submission positions.
func checkComponents(t *testing.T, queries []*Query, db MapReader) {
	t.Helper()
	pend := make([]Pending, len(queries))
	for i, q := range queries {
		pend[i] = Pending{ID: 2*i + 1, Query: q, Reader: db}
	}
	res := Evaluate(pend, EvalOptions{})
	// Partner edges, derived from the answers alone: i and j are partners
	// when an atom of i's postcondition, instantiated with i's bindings, is
	// one of j's answer tuples.
	partners := make(map[int][]int)
	for i, ai := range res.Answers {
		if ai.Status != Answered {
			continue
		}
		for _, p := range queries[(i-1)/2].Post {
			want, err := p.instantiate(Valuation(ai.Bindings))
			if err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
			for j, aj := range res.Answers {
				if j == i || aj.Status != Answered {
					continue
				}
				for _, h := range aj.Tuples {
					if h.Key() == want.Key() {
						partners[i] = append(partners[i], j)
						partners[j] = append(partners[j], i)
					}
				}
			}
		}
	}
	seen := make(map[int]bool)
	prevFirst := -1
	for _, comp := range res.Components {
		if len(comp) == 0 {
			t.Fatal("empty component")
		}
		if comp[0] <= prevFirst {
			t.Fatalf("components not ordered by earliest member: %v", res.Components)
		}
		prevFirst = comp[0]
		// Closure of comp[0] along partner edges.
		closure := map[int]bool{comp[0]: true}
		for frontier := []int{comp[0]}; len(frontier) > 0; frontier = frontier[1:] {
			for _, j := range partners[frontier[0]] {
				if !closure[j] {
					closure[j] = true
					frontier = append(frontier, j)
				}
			}
		}
		if len(closure) != len(comp) {
			t.Fatalf("component %v is not the partner closure %v", comp, closure)
		}
		for k, id := range comp {
			if !closure[id] {
				t.Fatalf("component %v has member %d outside the partner closure %v", comp, id, closure)
			}
			if k > 0 && comp[k-1] >= id {
				t.Fatalf("component %v members out of submission order", comp)
			}
			if seen[id] {
				t.Fatalf("query %d appears in two components: %v", id, res.Components)
			}
			seen[id] = true
			if res.Answers[id].Status != Answered {
				t.Fatalf("component %v contains query %d with status %v", comp, id, res.Answers[id].Status)
			}
		}
	}
	for id, a := range res.Answers {
		if a.Status == Answered && !seen[id] {
			t.Fatalf("answered query %d is in no component: %v", id, res.Components)
		}
	}
}

// randomQueries builds a random mix of pairs, cycles, and loner queries
// over a shared value domain, with some queries mentioning partners that
// do not exist.
func randomQueries(rng *rand.Rand) ([]*Query, MapReader) {
	nVals := 1 + rng.Intn(3)
	rows := make([]types.Tuple, nVals)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i + 1))}
	}
	db := MapReader{"Vals": rows}
	var queries []*Query
	mk := func(rel, me, them string) *Query {
		return &Query{
			Head:   []Atom{NewAtom(rel, CStr(me), V("v"))},
			Post:   []Atom{NewAtom(rel, CStr(them), V("v"))},
			Body:   []Atom{NewAtom("Vals", V("v"))},
			Choose: 1,
		}
	}
	id := 0
	structures := 1 + rng.Intn(4)
	for s := 0; s < structures; s++ {
		rel := fmt.Sprintf("R%d", s)
		switch rng.Intn(4) {
		case 0: // complete pair
			a, b := fmt.Sprintf("u%d", id), fmt.Sprintf("u%d", id+1)
			id += 2
			queries = append(queries, mk(rel, a, b), mk(rel, b, a))
		case 1: // cycle of 3-4
			k := 3 + rng.Intn(2)
			names := make([]string, k)
			for i := range names {
				names[i] = fmt.Sprintf("u%d", id)
				id++
			}
			for i := range names {
				queries = append(queries, mk(rel, names[i], names[(i+1)%k]))
			}
		case 2: // half pair (partner missing)
			a := fmt.Sprintf("u%d", id)
			id++
			queries = append(queries, mk(rel, a, "ghost"))
		default: // loner without postcondition
			a := fmt.Sprintf("u%d", id)
			id++
			q := mk(rel, a, "unused")
			q.Post = nil
			queries = append(queries, q)
		}
	}
	return queries, db
}

func TestSolvePropertyRandomStructures(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for iter := 0; iter < 500; iter++ {
		queries, db := randomQueries(rng)
		checkComponents(t, queries, db)
		groundings := make([][]*Grounding, len(queries))
		for i, q := range queries {
			gs, err := Ground(q, db, 0)
			if err != nil {
				t.Fatal(err)
			}
			groundings[i] = gs
		}
		chosen := Solve(groundings)
		if len(chosen) != len(queries) {
			t.Fatalf("chosen length %d != %d", len(chosen), len(queries))
		}
		checkCoordinatingSet(t, groundings, chosen)
		// Determinism.
		chosen2 := Solve(groundings)
		for i := range chosen {
			if chosen[i] != chosen2[i] {
				t.Fatalf("iteration %d: nondeterministic solve at query %d", iter, i)
			}
		}
		// Queries with no postconditions must always be answered (they
		// coordinate with nobody).
		for i, q := range queries {
			if len(q.Post) == 0 && len(groundings[i]) > 0 && chosen[i] < 0 {
				t.Fatalf("loner query %d unanswered", i)
			}
		}
	}
}

func TestSolveCompletePairsAlwaysAnswered(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		db := MapReader{"Vals": {{types.Int(1)}, {types.Int(2)}}}
		nPairs := 1 + rng.Intn(5)
		var queries []*Query
		for p := 0; p < nPairs; p++ {
			rel := fmt.Sprintf("P%d", p)
			a, b := fmt.Sprintf("a%d", p), fmt.Sprintf("b%d", p)
			mkQ := func(me, them string) *Query {
				return &Query{
					Head:   []Atom{NewAtom(rel, CStr(me), V("v"))},
					Post:   []Atom{NewAtom(rel, CStr(them), V("v"))},
					Body:   []Atom{NewAtom("Vals", V("v"))},
					Choose: 1,
				}
			}
			queries = append(queries, mkQ(a, b), mkQ(b, a))
		}
		// Shuffle the submission order.
		rng.Shuffle(len(queries), func(i, j int) { queries[i], queries[j] = queries[j], queries[i] })
		pend := make([]Pending, len(queries))
		for i, q := range queries {
			pend[i] = Pending{ID: i, Query: q, Reader: db}
		}
		checkComponents(t, queries, db)
		res := Evaluate(pend, EvalOptions{})
		for i := range queries {
			if res.Answers[i].Status != Answered {
				t.Fatalf("iteration %d: query %d of complete pair set unanswered (%v)", iter, i, res.Answers[i].Status)
			}
		}
	}
}

func TestSolveBudgetTerminates(t *testing.T) {
	// A dense pathological instance: many queries all producing and
	// consuming overlapping atoms. The solver must terminate (budget) and
	// return a consistent (possibly partial) answer.
	db := MapReader{"Vals": {{types.Int(1)}, {types.Int(2)}, {types.Int(3)}}}
	const k = 12
	var groundings [][]*Grounding
	for i := 0; i < k; i++ {
		q := &Query{
			Head: []Atom{NewAtom("R", CStr(fmt.Sprintf("u%d", i)), V("v"))},
			Post: []Atom{
				NewAtom("R", CStr(fmt.Sprintf("u%d", (i+1)%k)), V("v")),
				NewAtom("R", CStr(fmt.Sprintf("u%d", (i+2)%k)), V("v")),
			},
			Body:   []Atom{NewAtom("Vals", V("v"))},
			Choose: 1,
		}
		gs, err := Ground(q, db, 0)
		if err != nil {
			t.Fatal(err)
		}
		groundings = append(groundings, gs)
	}
	chosen := Solve(groundings)
	checkCoordinatingSet(t, groundings, chosen)
	// This double-cycle is satisfiable: everyone picks the same value.
	for i, gi := range chosen {
		if gi < 0 {
			t.Fatalf("query %d unanswered in satisfiable double cycle", i)
		}
	}
}

// --- exact-solver properties ---------------------------------------------

// bruteForceMax exhaustively enumerates every assignment (each query: one
// of its groundings or unanswered) and returns the size of the maximum
// coordinating set — the oracle the exact solver must match.
func bruteForceMax(groundings [][]*Grounding) int {
	n := len(groundings)
	assign := make([]int, n)
	best := 0
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			heads := make(map[string]bool)
			count := 0
			for qi, gi := range assign {
				if gi < 0 {
					continue
				}
				count++
				for _, h := range groundings[qi][gi].Head {
					heads[h.Key()] = true
				}
			}
			if count <= best {
				return
			}
			for qi, gi := range assign {
				if gi < 0 {
					continue
				}
				for _, p := range groundings[qi][gi].Post {
					if !heads[p.Key()] {
						return
					}
				}
			}
			best = count
			return
		}
		for gi := 0; gi < len(groundings[i]); gi++ {
			assign[i] = gi
			rec(i + 1)
		}
		assign[i] = -1
		rec(i + 1)
	}
	rec(0)
	return best
}

// randomCompetingQueries builds small instances where structures OVERLAP:
// pairs, spoke fans, and chains drawn over a tiny shared pool of answer
// relations and participant names, so producers are shared and structures
// compete for each other's single groundings.
func randomCompetingQueries(rng *rand.Rand) ([]*Query, MapReader) {
	nVals := 1 + rng.Intn(2)
	rows := make([]types.Tuple, nVals)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i + 1))}
	}
	db := MapReader{"Vals": rows}
	rels := []string{"R0", "R1"}
	names := []string{"a", "b", "c", "d"}
	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	mk := func(rel, me, them string) *Query {
		return &Query{
			Head:   []Atom{NewAtom(rel, CStr(me), V("v"))},
			Post:   []Atom{NewAtom(rel, CStr(them), V("v"))},
			Body:   []Atom{NewAtom("Vals", V("v"))},
			Choose: 1,
		}
	}
	n := 2 + rng.Intn(6) // 2..7 queries: brute force stays cheap
	queries := make([]*Query, 0, n)
	for len(queries) < n {
		switch rng.Intn(3) {
		case 0: // one half of a pair over shared names — may or may not match
			queries = append(queries, mk(pick(rels), pick(names), pick(names)))
		case 1: // loner producer (no posts): an uncontested supplier
			q := mk(pick(rels), pick(names), "x")
			q.Post = nil
			queries = append(queries, q)
		default: // two-post consumer: needs two producers at one value
			rel := pick(rels)
			q := mk(rel, pick(names), pick(names))
			q.Post = append(q.Post, NewAtom(rel, CStr(pick(names)), V("v")))
			queries = append(queries, q)
		}
	}
	return queries, db
}

// TestSolveMatchesBruteForceOracle is the exactness property: on random
// small overlapping instances the solver's answered count equals the
// brute-force maximum coordinating set, and the chosen set is valid.
func TestSolveMatchesBruteForceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 1500; iter++ {
		queries, db := randomCompetingQueries(rng)
		checkComponents(t, queries, db)
		groundings := make([][]*Grounding, len(queries))
		for i, q := range queries {
			gs, err := Ground(q, db, 0)
			if err != nil {
				t.Fatal(err)
			}
			groundings[i] = gs
		}
		chosen, stats := SolveBudget(groundings, 0)
		checkCoordinatingSet(t, groundings, chosen)
		if stats.Exhausted {
			t.Fatalf("iteration %d: budget exhausted on a tiny instance", iter)
		}
		want := bruteForceMax(groundings)
		if stats.Answered != want {
			t.Fatalf("iteration %d: solver answered %d, brute-force maximum %d\nqueries: %v",
				iter, stats.Answered, want, queries)
		}
	}
}

// contestReader is the shared two-destination reader the competing-
// structure test instances ground against.
func contestReader() MapReader {
	return MapReader{"Dests": {{types.Str("d1")}, {types.Str("d2")}}}
}

// contestQuery builds the canonical competing-structure test query: head
// role `me`, postcondition role `them`, destinations enumerated from the
// contestReader's Dests relation, optionally pinned to one destination.
// All test files in this package build their contention instances from it.
func contestQuery(me, them, where string) *Query {
	q := &Query{
		Head:   []Atom{NewAtom("R", CStr(me), V("d"))},
		Post:   []Atom{NewAtom("R", CStr(them), V("d"))},
		Body:   []Atom{NewAtom("Dests", V("d"))},
		Choose: 1,
	}
	if where != "" {
		q.Where = []Constraint{{Left: V("d"), Op: OpEq, Right: CStr(where)}}
	}
	return q
}

// competingChainQueries is the canonical instance where greedy closure is
// non-maximal: a spoke S can pair with hub A (2 answered) or join a
// 3-cycle with B and C (3 answered). A's claim enumerates first, so greedy
// commits to the pair; the exact solver must find the cycle.
func competingChainQueries() []*Query {
	return []*Query{
		contestQuery("s", "claim", ""),      // S: any dest, needs a claim
		contestQuery("claim", "s", "d1"),    // A: pair hub, d1 only
		contestQuery("claim", "link", "d2"), // B: chain hub, d2 only
		contestQuery("link", "s", "d2"),     // C: chain closer, d2 only
	}
}

func competingChainInstance(t *testing.T) [][]*Grounding {
	t.Helper()
	db := contestReader()
	queries := competingChainQueries()
	groundings := make([][]*Grounding, len(queries))
	for i, qu := range queries {
		gs, err := Ground(qu, db, 0)
		if err != nil {
			t.Fatal(err)
		}
		groundings[i] = gs
	}
	return groundings
}

// TestSolveExactBeatsGreedyOnCompetingChains pins the tentpole behavior:
// exact answers 3 where greedy answers 2, and a negative budget reproduces
// the greedy result (the ablation knob).
func TestSolveExactBeatsGreedyOnCompetingChains(t *testing.T) {
	groundings := competingChainInstance(t)
	exactChosen, exact := SolveBudget(groundings, 0)
	checkCoordinatingSet(t, groundings, exactChosen)
	if exact.Answered != 3 {
		t.Fatalf("exact answered %d, want 3 (S+B+C)", exact.Answered)
	}
	if exactChosen[1] >= 0 {
		t.Fatalf("exact answered the pair hub A; want the 3-cycle: %v", exactChosen)
	}
	greedyChosen, greedy := SolveBudget(groundings, -1)
	checkCoordinatingSet(t, groundings, greedyChosen)
	if greedy.Answered != 2 {
		t.Fatalf("greedy answered %d, want 2 (S+A)", greedy.Answered)
	}
	if got := bruteForceMax(groundings); got != exact.Answered {
		t.Fatalf("brute force says max is %d, exact found %d", got, exact.Answered)
	}
}

// competingPendingSet builds a pending set where coordination structures
// COMPETE — one spoke contested by a pair hub and a 3-chain, plus a
// two-hub tie — so the exact solver has real backtracking to do.
func competingPendingSet() []Pending {
	reader := contestReader()
	queries := append(competingChainQueries(), // contested spoke + pair hub + 3-chain
		contestQuery("t", "bid", ""),   // tied spoke
		contestQuery("bid", "t", "d1"), // tie hub 1
		contestQuery("bid", "t", "d2"), // tie hub 2
	)
	pending := make([]Pending, len(queries))
	for i, qu := range queries {
		pending[i] = Pending{ID: i, Query: qu, Reader: reader}
	}
	return pending
}

// TestEvaluateCompetingDeterministicUnderSchedules evaluates the competing
// pending set many times (Go randomizes map iteration on every run) and
// demands the exact solver pick the identical coordinating set every time:
// the 3-chain over the pair, and the earlier hub in the tie.
func TestEvaluateCompetingDeterministicUnderSchedules(t *testing.T) {
	var ref *Result
	for iter := 0; iter < 60; iter++ {
		res := Evaluate(competingPendingSet(), EvalOptions{})
		if res.Solve.Answered != 5 {
			t.Fatalf("iteration %d: answered %d, want 5 (chain of 3 + tie pair)", iter, res.Solve.Answered)
		}
		for _, id := range []int{0, 2, 3, 4, 5} {
			if res.Answers[id].Status != Answered {
				t.Fatalf("iteration %d: query %d status %v, want ANSWERED", iter, id, res.Answers[id].Status)
			}
		}
		for _, id := range []int{1, 6} {
			if res.Answers[id].Status != EmptyAnswer {
				t.Fatalf("iteration %d: losing query %d status %v, want EMPTY", iter, id, res.Answers[id].Status)
			}
		}
		if !componentsAre(res, []int{0, 2, 3}, []int{4, 5}) {
			t.Fatalf("iteration %d: components %v, want [[0 2 3] [4 5]]", iter, res.Components)
		}
		if ref == nil {
			ref = res
			continue
		}
		for id := range ref.Answers {
			if !reflect.DeepEqual(ref.Answers[id], res.Answers[id]) {
				t.Fatalf("iteration %d: answer for query %d diverged", iter, id)
			}
		}
	}
}

// TestSolveBudgetFallsBackToGreedy forces exhaustion with a budget of one
// node: the result must equal the pure-greedy result and say so.
func TestSolveBudgetFallsBackToGreedy(t *testing.T) {
	groundings := competingChainInstance(t)
	chosen, stats := SolveBudget(groundings, 1)
	if !stats.Exhausted {
		t.Fatal("budget 1 did not report exhaustion")
	}
	greedyChosen, _ := SolveBudget(groundings, -1)
	for i := range chosen {
		if chosen[i] != greedyChosen[i] {
			t.Fatalf("fallback differs from greedy at query %d: %v vs %v", i, chosen, greedyChosen)
		}
	}
}

// TestSolveDeterministicTieBreak: two equal-size maxima (the spoke can pair
// with either hub) must resolve to the earlier-submitted hub with the
// earliest grounding, every time.
func TestSolveDeterministicTieBreak(t *testing.T) {
	db := contestReader()
	queries := []*Query{
		contestQuery("s", "claim", ""),   // spoke: 2 groundings (d1, d2)
		contestQuery("claim", "s", "d1"), // hub 1, d1
		contestQuery("claim", "s", "d2"), // hub 2, d2
	}
	groundings := make([][]*Grounding, len(queries))
	for i, q := range queries {
		gs, err := Ground(q, db, 0)
		if err != nil {
			t.Fatal(err)
		}
		groundings[i] = gs
	}
	for iter := 0; iter < 50; iter++ {
		chosen, stats := SolveBudget(groundings, 0)
		if stats.Answered != 2 {
			t.Fatalf("answered %d, want 2", stats.Answered)
		}
		if chosen[0] != 0 || chosen[1] != 0 || chosen[2] != -1 {
			t.Fatalf("tie-break violated: chosen %v, want [0 0 -1] (earliest grounding, earliest hub)", chosen)
		}
	}
}
