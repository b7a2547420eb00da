package eq

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/types"
)

// pairRound is a coordinated pair over a Flights relation with n flights to
// LA: each query has n groundings, and the round answers both.
func pairRound(n int) []Pending {
	rows := make([]types.Tuple, 0, n+2)
	for i := 0; i < n; i++ {
		rows = append(rows, types.Tuple{types.Int(int64(100 + i)), types.Str("LA")})
	}
	rows = append(rows, types.Tuple{types.Int(1), types.Str("NY")}, types.Tuple{types.Int(2), types.Str("SF")})
	db := MapReader{"Flights": rows}
	mk := func(me, them string) *Query {
		return &Query{
			Head:   []Atom{NewAtom("R", CStr(me), V("f"))},
			Post:   []Atom{NewAtom("R", CStr(them), V("f"))},
			Body:   []Atom{NewAtom("Flights", V("f"), V("d"))},
			Where:  []Constraint{{Left: V("d"), Op: OpEq, Right: CStr("LA")}},
			Choose: 1,
		}
	}
	return []Pending{
		{ID: 1, Query: mk("A", "B"), Reader: db},
		{ID: 2, Query: mk("B", "A"), Reader: db},
	}
}

// maxWarmPairAllocs is the allocation ceiling of one warm pair round on a
// reused Evaluator: the Result and its maps, each query's plan, probe
// cursor and body tables, the solver's and the round's components, and
// each answer's own Tuples and Bindings.
const maxWarmPairAllocs = 64

// TestEvaluatorWarmRoundAllocsPerAnswer is the allocation gate of the round
// arena: a warm round on a reused Evaluator allocates the same number of
// objects whether each query has 8 or 64 groundings — in proportion to its
// queries and answers, never to its groundings.
func TestEvaluatorWarmRoundAllocsPerAnswer(t *testing.T) {
	counts := make(map[int]float64)
	for _, n := range []int{8, 64} {
		pend := pairRound(n)
		var ev Evaluator
		round := func() {
			res := ev.Evaluate(pend, EvalOptions{})
			if res.Answers[1].Status != Answered || res.Answers[2].Status != Answered || len(res.Groundings[1]) != n {
				t.Fatalf("n=%d: %v / %v, %d groundings", n, res.Answers[1].Status, res.Answers[2].Status, len(res.Groundings[1]))
			}
		}
		round() // warm the arena, the stream scratch and the solver buffers
		counts[n] = testing.AllocsPerRun(50, round)
		t.Logf("%d groundings per query: %.0f allocs per round", n, counts[n])
	}
	if counts[8] != counts[64] {
		t.Errorf("a warm round allocates %.0f objects with 8 groundings per query but %.0f with 64", counts[8], counts[64])
	}
	if counts[64] > maxWarmPairAllocs {
		t.Errorf("a warm pair round allocates %.0f objects, want at most %d", counts[64], maxWarmPairAllocs)
	}
}

// TestEvaluatorAnswersOutliveRounds: answers own their memory, while a
// round's groundings are the arena's and the next round reuses it.
func TestEvaluatorAnswersOutliveRounds(t *testing.T) {
	var ev Evaluator
	ev.Evaluate(pairRound(8), EvalOptions{}) // grow the arena: the next round reuses its slabs
	first := ev.Evaluate(pairRound(8), EvalOptions{})
	a := first.Answers[1]
	wantTuples := fmt.Sprint(a.Tuples)
	wantBindings := fmt.Sprint(a.Bindings)
	kept := CloneGroundings(first.Groundings[1])
	wantKept := fmt.Sprint(groundingKeys(kept), bindingsOf(kept))

	// Later rounds over other flights overwrite the arena.
	for i := 0; i < 3; i++ {
		pend := pairRound(16)
		pend[0].Reader = MapReader{"Flights": {{types.Int(int64(900 + i)), types.Str("LA")}}}
		pend[1].Reader = pend[0].Reader
		ev.Evaluate(pend, EvalOptions{})
	}
	if got := fmt.Sprint(a.Tuples); got != wantTuples {
		t.Errorf("answer tuples changed under later rounds: %s, want %s", got, wantTuples)
	}
	if got := fmt.Sprint(a.Bindings); got != wantBindings {
		t.Errorf("answer bindings changed under later rounds: %s, want %s", got, wantBindings)
	}
	if got := fmt.Sprint(groundingKeys(kept), bindingsOf(kept)); got != wantKept {
		t.Errorf("cloned groundings changed under later rounds: %s, want %s", got, wantKept)
	}
}

func bindingsOf(gs []*Grounding) []map[string]types.Value {
	out := make([]map[string]types.Value, len(gs))
	for i, g := range gs {
		out[i] = g.Bindings()
	}
	return out
}

// TestCloneGroundingsDeepCopies: a clone equals its source and shares no
// value or atom memory with it.
func TestCloneGroundingsDeepCopies(t *testing.T) {
	gs, err := Ground(mickeyQuery(), paperDB(), 0)
	if err != nil || len(gs) == 0 {
		t.Fatalf("ground: %d, %v", len(gs), err)
	}
	c := CloneGroundings(gs)
	if !reflect.DeepEqual(c, gs) {
		t.Fatalf("clone differs:\n%v\n%v", c, gs)
	}
	gs[0].Head[0].Args[1] = types.Int(-1)
	gs[0].Vals[0] = types.Int(-1)
	if c[0].Head[0].Args[1].Equal(types.Int(-1)) || c[0].Vals[0].Equal(types.Int(-1)) {
		t.Error("clone aliases its source")
	}
	if CloneGroundings(nil) != nil {
		t.Error("clone of nil is not nil")
	}
}
