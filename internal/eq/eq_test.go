package eq

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/types"
)

// paperDB is the flight database of Figure 1(a).
func paperDB() MapReader {
	return MapReader{
		"Flights": {
			{types.Int(122), types.MustDate("2011-05-03"), types.Str("LA")},
			{types.Int(123), types.MustDate("2011-05-04"), types.Str("LA")},
			{types.Int(124), types.MustDate("2011-05-03"), types.Str("LA")},
			{types.Int(235), types.MustDate("2011-05-05"), types.Str("Paris")},
		},
		"Airlines": {
			{types.Int(122), types.Str("United")},
			{types.Int(123), types.Str("United")},
			{types.Int(124), types.Str("USAir")},
			{types.Int(235), types.Str("Delta")},
		},
	}
}

// mickeyQuery is Mickey's entangled query from §2: fly to LA on the same
// flight as Minnie.
func mickeyQuery() *Query {
	return &Query{
		Head: []Atom{NewAtom("Reservation", CStr("Mickey"), V("fno"), V("fdate"))},
		Post: []Atom{NewAtom("Reservation", CStr("Minnie"), V("fno"), V("fdate"))},
		Body: []Atom{NewAtom("Flights", V("fno"), V("fdate"), V("dest"))},
		Where: []Constraint{
			{Left: V("dest"), Op: OpEq, Right: CStr("LA")},
		},
		Choose: 1,
	}
}

// minnieQuery is Minnie's query: same flight as Mickey, United only.
func minnieQuery() *Query {
	return &Query{
		Head: []Atom{NewAtom("Reservation", CStr("Minnie"), V("fno"), V("fdate"))},
		Post: []Atom{NewAtom("Reservation", CStr("Mickey"), V("fno"), V("fdate"))},
		Body: []Atom{
			NewAtom("Flights", V("fno"), V("fdate"), V("dest")),
			NewAtom("Airlines", V("fno"), V("airline")),
		},
		Where: []Constraint{
			{Left: V("dest"), Op: OpEq, Right: CStr("LA")},
			{Left: V("airline"), Op: OpEq, Right: CStr("United")},
		},
		Choose: 1,
	}
}

func TestValidateRangeRestriction(t *testing.T) {
	q := &Query{
		Head: []Atom{NewAtom("R", V("x"))},
		Body: []Atom{NewAtom("T", V("y"))},
	}
	if err := q.Validate(); err == nil || !strings.Contains(err.Error(), "range restriction") {
		t.Errorf("head range restriction not enforced: %v", err)
	}
	q2 := &Query{
		Head: []Atom{NewAtom("R", V("y"))},
		Post: []Atom{NewAtom("R", V("z"))},
		Body: []Atom{NewAtom("T", V("y"))},
	}
	if err := q2.Validate(); err == nil {
		t.Error("post range restriction not enforced")
	}
	q3 := &Query{
		Head: []Atom{NewAtom("R", V("y"))},
		Body: []Atom{NewAtom("T", V("y"))},
		Bind: []string{"nope"},
	}
	if err := q3.Validate(); err == nil {
		t.Error("bind range restriction not enforced")
	}
	if err := (&Query{Body: []Atom{NewAtom("T", V("x"))}}).Validate(); err == nil {
		t.Error("empty head accepted")
	}
	if err := (&Query{Head: []Atom{NewAtom("R", CInt(1))}}).Validate(); err == nil {
		t.Error("empty body accepted")
	}
	if err := mickeyQuery().Validate(); err != nil {
		t.Errorf("paper query rejected: %v", err)
	}
}

func TestGroundMickey(t *testing.T) {
	// Mickey's query has three valuations on the Figure 1 database
	// (flights 122, 123, 124 — all LA).
	gs, err := Ground(mickeyQuery(), paperDB(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 3 {
		t.Fatalf("groundings = %d, want 3", len(gs))
	}
	// Enumeration order follows scan order: 122, 123, 124.
	wantFno := []int64{122, 123, 124}
	for i, g := range gs {
		if got := g.Head[0].Args[1].Int64(); got != wantFno[i] {
			t.Errorf("grounding %d fno = %d, want %d", i, got, wantFno[i])
		}
		if g.Head[0].Args[0].Str64() != "Mickey" || g.Post[0].Args[0].Str64() != "Minnie" {
			t.Errorf("grounding %d atoms wrong: %v / %v", i, g.Head[0], g.Post[0])
		}
	}
}

func TestGroundMinnieJoin(t *testing.T) {
	// Minnie joins Flights with Airlines and keeps only United LA flights:
	// 122 and 123 (the paper's groundings 4 and 5).
	gs, err := Ground(minnieQuery(), paperDB(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 2 {
		t.Fatalf("groundings = %d, want 2", len(gs))
	}
	if gs[0].Head[0].Args[1].Int64() != 122 || gs[1].Head[0].Args[1].Int64() != 123 {
		t.Errorf("groundings = %v, %v", gs[0].Head[0], gs[1].Head[0])
	}
}

func TestGroundDedupAndLimit(t *testing.T) {
	db := MapReader{
		"T": {
			{types.Int(1), types.Str("a")},
			{types.Int(2), types.Str("a")}, // same head after projection
		},
	}
	q := &Query{
		Head:   []Atom{NewAtom("R", V("s"))},
		Body:   []Atom{NewAtom("T", V("n"), V("s"))},
		Choose: 1,
	}
	gs, err := Ground(q, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 1 {
		t.Fatalf("dedup failed: %d groundings", len(gs))
	}
	q2 := &Query{
		Head:   []Atom{NewAtom("R", V("n"))},
		Body:   []Atom{NewAtom("T", V("n"), V("s"))},
		Choose: 1,
	}
	gs2, err := Ground(q2, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs2) != 1 {
		t.Fatalf("maxGroundings not honored: %d", len(gs2))
	}
}

func TestGroundRepeatedVariableJoins(t *testing.T) {
	// Same variable in two positions forces equality.
	db := MapReader{"T": {
		{types.Int(1), types.Int(1)},
		{types.Int(1), types.Int(2)},
	}}
	q := &Query{
		Head:   []Atom{NewAtom("R", V("x"))},
		Body:   []Atom{NewAtom("T", V("x"), V("x"))},
		Choose: 1,
	}
	gs, err := Ground(q, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 1 || gs[0].Head[0].Args[0].Int64() != 1 {
		t.Fatalf("gs = %v", gs)
	}
}

func TestGroundArityMismatch(t *testing.T) {
	db := MapReader{"T": {{types.Int(1)}}}
	q := &Query{
		Head:   []Atom{NewAtom("R", V("x"))},
		Body:   []Atom{NewAtom("T", V("x"), V("y"))},
		Choose: 1,
	}
	if _, err := Ground(q, db, 0); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestGroundMissingRelation(t *testing.T) {
	q := &Query{
		Head:   []Atom{NewAtom("R", V("x"))},
		Body:   []Atom{NewAtom("Nope", V("x"))},
		Choose: 1,
	}
	if _, err := Ground(q, MapReader{}, 0); err == nil {
		t.Fatal("missing relation accepted")
	}
}

func TestConstraintOperators(t *testing.T) {
	db := MapReader{"T": {
		{types.Int(1)}, {types.Int(2)}, {types.Int(3)},
	}}
	cases := []struct {
		op   CmpOp
		rhs  int64
		want int
	}{
		{OpEq, 2, 1}, {OpNe, 2, 2}, {OpLt, 2, 1},
		{OpLe, 2, 2}, {OpGt, 2, 1}, {OpGe, 2, 2},
	}
	for _, c := range cases {
		q := &Query{
			Head:   []Atom{NewAtom("R", V("x"))},
			Body:   []Atom{NewAtom("T", V("x"))},
			Where:  []Constraint{{Left: V("x"), Op: c.op, Right: CInt(c.rhs)}},
			Choose: 1,
		}
		gs, err := Ground(q, db, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(gs) != c.want {
			t.Errorf("op %v: %d groundings, want %d", c.op, len(gs), c.want)
		}
	}
}

func TestNullComparisonIsFalse(t *testing.T) {
	db := MapReader{"T": {{types.Null()}, {types.Int(1)}}}
	q := &Query{
		Head:   []Atom{NewAtom("R", V("x"))},
		Body:   []Atom{NewAtom("T", V("x"))},
		Where:  []Constraint{{Left: V("x"), Op: OpGe, Right: CInt(0)}},
		Choose: 1,
	}
	gs, err := Ground(q, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 1 {
		t.Fatalf("NULL passed a comparison: %d groundings", len(gs))
	}
}

// TestPaperMutualSatisfaction reproduces Figure 1(b): the system chooses
// flight 122 (or 123) for both Mickey and Minnie consistently.
func TestPaperMutualSatisfaction(t *testing.T) {
	res := Evaluate([]Pending{
		{ID: 1, Query: mickeyQuery(), Reader: paperDB()},
		{ID: 2, Query: minnieQuery(), Reader: paperDB()},
	}, EvalOptions{})
	a1 := res.Answers[1]
	a2 := res.Answers[2]
	if a1.Status != Answered || a2.Status != Answered {
		t.Fatalf("statuses = %v, %v", a1.Status, a2.Status)
	}
	f1 := a1.Bindings["fno"].Int64()
	f2 := a2.Bindings["fno"].Int64()
	if f1 != f2 {
		t.Fatalf("coordinated on different flights: %d vs %d", f1, f2)
	}
	if f1 != 122 && f1 != 123 {
		t.Fatalf("chose non-United or non-LA flight %d", f1)
	}
	// One entanglement operation holding both.
	if !componentsAre(res, []int{1, 2}) {
		t.Errorf("components = %v", res.Components)
	}
	// Grounding tables recorded for quasi-read locking.
	if got := res.GroundTables[2]; len(got) != 2 {
		t.Errorf("GroundTables[2] = %v", got)
	}
}

func TestEvaluationDeterministic(t *testing.T) {
	var first int64
	for i := 0; i < 10; i++ {
		res := Evaluate([]Pending{
			{ID: 1, Query: mickeyQuery(), Reader: paperDB()},
			{ID: 2, Query: minnieQuery(), Reader: paperDB()},
		}, EvalOptions{})
		f := res.Answers[1].Bindings["fno"].Int64()
		if i == 0 {
			first = f
		} else if f != first {
			t.Fatalf("nondeterministic answers: %d then %d", first, f)
		}
	}
}

// TestNoPartnerBlocks reproduces the Donald scenario of Figure 4: Donald's
// query posts FlightRes('Daffy', ...) which no pending head can unify
// with, so it must fail (wait), not return empty.
func TestNoPartnerBlocks(t *testing.T) {
	donald := &Query{
		Head:   []Atom{NewAtom("Reservation", CStr("Donald"), V("fno"), V("fdate"))},
		Post:   []Atom{NewAtom("Reservation", CStr("Daffy"), V("fno"), V("fdate"))},
		Body:   []Atom{NewAtom("Flights", V("fno"), V("fdate"), V("dest"))},
		Where:  []Constraint{{Left: V("dest"), Op: OpEq, Right: CStr("LA")}},
		Choose: 1,
	}
	res := Evaluate([]Pending{
		{ID: 1, Query: mickeyQuery(), Reader: paperDB()},
		{ID: 2, Query: minnieQuery(), Reader: paperDB()},
		{ID: 3, Query: donald, Reader: paperDB()},
	}, EvalOptions{})
	if res.Answers[1].Status != Answered || res.Answers[2].Status != Answered {
		t.Fatal("Mickey/Minnie should still coordinate")
	}
	if res.Answers[3].Status != NoPartner {
		t.Fatalf("Donald status = %v, want NoPartner", res.Answers[3].Status)
	}
}

// TestCanEntangle: Mickey and Minnie can meet; Donald's post names Daffy,
// but Mickey's post names Minnie, so neither feeds the other — while a
// Daffy feeds Donald, which is enough in either direction.
func TestCanEntangle(t *testing.T) {
	person := func(me, them string) *Query {
		q := mickeyQuery()
		q.Head[0].Args[0], q.Post[0].Args[0] = CStr(me), CStr(them)
		return q
	}
	for _, c := range []struct {
		a, b *Query
		want bool
	}{
		{mickeyQuery(), minnieQuery(), true},
		{person("Donald", "Daffy"), mickeyQuery(), false},
		{person("Donald", "Daffy"), person("Daffy", "Goofy"), true},
		{person("Daffy", "Goofy"), person("Donald", "Daffy"), true},
	} {
		if got := CanEntangle(c.a, c.b); got != c.want {
			t.Errorf("CanEntangle(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestEmptyAnswerWhenPartnersIncompatible: partners are present and the
// combined query is formulable, but no common value exists — query
// succeeds with an empty answer (Appendix B) and the transaction proceeds.
func TestEmptyAnswerWhenPartnersIncompatible(t *testing.T) {
	db := MapReader{
		"Flights": {
			{types.Int(1), types.Str("LA")},
			{types.Int(2), types.Str("NYC")},
		},
	}
	a := &Query{
		Head:   []Atom{NewAtom("R", CStr("A"), V("f"))},
		Post:   []Atom{NewAtom("R", CStr("B"), V("f"))},
		Body:   []Atom{NewAtom("Flights", V("f"), V("d"))},
		Where:  []Constraint{{Left: V("d"), Op: OpEq, Right: CStr("LA")}},
		Choose: 1,
	}
	b := &Query{
		Head:   []Atom{NewAtom("R", CStr("B"), V("f"))},
		Post:   []Atom{NewAtom("R", CStr("A"), V("f"))},
		Body:   []Atom{NewAtom("Flights", V("f"), V("d"))},
		Where:  []Constraint{{Left: V("d"), Op: OpEq, Right: CStr("NYC")}},
		Choose: 1,
	}
	res := Evaluate([]Pending{
		{ID: 1, Query: a, Reader: db},
		{ID: 2, Query: b, Reader: db},
	}, EvalOptions{})
	if res.Answers[1].Status != EmptyAnswer || res.Answers[2].Status != EmptyAnswer {
		t.Fatalf("statuses = %v, %v; want EmptyAnswer", res.Answers[1].Status, res.Answers[2].Status)
	}
}

// spokeQueries builds a hub user coordinating pairwise with k-1 spokes on
// distinct answer relations.
func spokeQueries(k int) []Pending {
	db := MapReader{"Slots": {{types.Int(10)}, {types.Int(20)}}}
	var pending []Pending
	id := 1
	for s := 1; s < k; s++ {
		rel := "R" + string(rune('0'+s))
		hub := &Query{
			Head:   []Atom{NewAtom(rel, CStr("hub"), V("v"))},
			Post:   []Atom{NewAtom(rel, CStr("spoke"), V("v"))},
			Body:   []Atom{NewAtom("Slots", V("v"))},
			Choose: 1,
		}
		spoke := &Query{
			Head:   []Atom{NewAtom(rel, CStr("spoke"), V("v"))},
			Post:   []Atom{NewAtom(rel, CStr("hub"), V("v"))},
			Body:   []Atom{NewAtom("Slots", V("v"))},
			Choose: 1,
		}
		pending = append(pending,
			Pending{ID: id, Query: hub, Reader: db},
			Pending{ID: id + 1, Query: spoke, Reader: db},
		)
		id += 2
	}
	return pending
}

func TestSpokeHubCoordination(t *testing.T) {
	pending := spokeQueries(5) // hub + 4 spokes -> 8 queries
	res := Evaluate(pending, EvalOptions{})
	for _, p := range pending {
		if res.Answers[p.ID].Status != Answered {
			t.Fatalf("query %d status %v", p.ID, res.Answers[p.ID].Status)
		}
	}
}

// cycleQueries builds the Cyclic structure of §5.2.2: transaction i's query
// posts the head of transaction i+1 (mod k).
func cycleQueries(k int) []Pending {
	db := MapReader{"Slots": {{types.Int(10)}, {types.Int(20)}}}
	var pending []Pending
	name := func(i int) string { return "u" + string(rune('0'+i)) }
	for i := 0; i < k; i++ {
		q := &Query{
			Head:   []Atom{NewAtom("R", CStr(name(i)), V("v"))},
			Post:   []Atom{NewAtom("R", CStr(name((i+1)%k)), V("v"))},
			Body:   []Atom{NewAtom("Slots", V("v"))},
			Choose: 1,
		}
		pending = append(pending, Pending{ID: i + 1, Query: q, Reader: db})
	}
	return pending
}

func TestCycleCoordination(t *testing.T) {
	for _, k := range []int{2, 3, 5, 10} {
		pending := cycleQueries(k)
		res := Evaluate(pending, EvalOptions{})
		var v int64 = -1
		for _, p := range pending {
			a := res.Answers[p.ID]
			if a.Status != Answered {
				t.Fatalf("k=%d: query %d status %v", k, p.ID, a.Status)
			}
			got := a.Bindings["v"].Int64()
			if v == -1 {
				v = got
			} else if got != v {
				t.Fatalf("k=%d: cycle not on a common value: %d vs %d", k, got, v)
			}
		}
	}
}

func TestBrokenCycleFails(t *testing.T) {
	// Remove one member of a 3-cycle: nobody can be answered, and because
	// the missing member's head is not formulable, its consumer fails with
	// NoPartner; the others can still form combined queries syntactically
	// and get EmptyAnswer.
	pending := cycleQueries(3)[:2] // u0 -> u1 -> (u2 missing)
	res := Evaluate(pending, EvalOptions{})
	if res.Answers[1].Status == Answered || res.Answers[2].Status == Answered {
		t.Fatal("broken cycle should answer nobody")
	}
	// u1's post names u2 which nobody produces: NoPartner.
	if res.Answers[2].Status != NoPartner {
		t.Fatalf("u1 status = %v, want NoPartner", res.Answers[2].Status)
	}
}

func TestChooseOneSelectsSingleGrounding(t *testing.T) {
	// Even with many mutually satisfiable flight options, each query gets
	// exactly one answer tuple.
	res := Evaluate([]Pending{
		{ID: 1, Query: mickeyQuery(), Reader: paperDB()},
		{ID: 2, Query: minnieQuery(), Reader: paperDB()},
	}, EvalOptions{})
	if n := len(res.Answers[1].Tuples); n != 1 {
		t.Fatalf("answer tuples = %d, want 1 (CHOOSE 1)", n)
	}
}

func TestEvaluateErroredReader(t *testing.T) {
	res := Evaluate([]Pending{{ID: 1, Query: mickeyQuery(), Reader: nil}}, EvalOptions{})
	if res.Answers[1].Status != Errored {
		t.Fatalf("status = %v", res.Answers[1].Status)
	}
	// A reader error also yields Errored.
	res2 := Evaluate([]Pending{{ID: 1, Query: mickeyQuery(), Reader: MapReader{}}}, EvalOptions{})
	if res2.Answers[1].Status != Errored || res2.Answers[1].Err == nil {
		t.Fatalf("status = %v err = %v", res2.Answers[1].Status, res2.Answers[1].Err)
	}
}

func TestSelfSatisfyingQuery(t *testing.T) {
	// A query whose post equals its own head coordinates with itself — the
	// degenerate case the coordinating-set definition permits.
	db := MapReader{"T": {{types.Int(1)}}}
	q := &Query{
		Head:   []Atom{NewAtom("R", V("x"))},
		Post:   []Atom{NewAtom("R", V("x"))},
		Body:   []Atom{NewAtom("T", V("x"))},
		Choose: 1,
	}
	res := Evaluate([]Pending{{ID: 1, Query: q, Reader: db}}, EvalOptions{})
	if res.Answers[1].Status != Answered {
		t.Fatalf("status = %v", res.Answers[1].Status)
	}
}

func TestNoPostconditionAnsweredAlone(t *testing.T) {
	db := MapReader{"T": {{types.Int(7)}}}
	q := &Query{
		Head:   []Atom{NewAtom("R", V("x"))},
		Body:   []Atom{NewAtom("T", V("x"))},
		Choose: 1,
	}
	res := Evaluate([]Pending{{ID: 1, Query: q, Reader: db}}, EvalOptions{})
	a := res.Answers[1]
	if a.Status != Answered || a.Tuples[0].Args[0].Int64() != 7 {
		t.Fatalf("answer = %+v", a)
	}
	if !componentsAre(res, []int{1}) {
		t.Errorf("components = %v", res.Components)
	}
}

func TestTwoDisjointPairs(t *testing.T) {
	db := MapReader{"Slots": {{types.Int(1)}}}
	mk := func(me, them, rel string) *Query {
		return &Query{
			Head:   []Atom{NewAtom(rel, CStr(me), V("v"))},
			Post:   []Atom{NewAtom(rel, CStr(them), V("v"))},
			Body:   []Atom{NewAtom("Slots", V("v"))},
			Choose: 1,
		}
	}
	res := Evaluate([]Pending{
		{ID: 1, Query: mk("a", "b", "R"), Reader: db},
		{ID: 2, Query: mk("b", "a", "R"), Reader: db},
		{ID: 3, Query: mk("c", "d", "R"), Reader: db},
		{ID: 4, Query: mk("d", "c", "R"), Reader: db},
	}, EvalOptions{})
	for id := 1; id <= 4; id++ {
		if res.Answers[id].Status != Answered {
			t.Fatalf("query %d: %v", id, res.Answers[id].Status)
		}
	}
	if !componentsAre(res, []int{1, 2}, []int{3, 4}) {
		t.Errorf("components = %v", res.Components)
	}
}

// componentsAre reports whether res groups its answered queries into
// exactly the want components, in order.
func componentsAre(res *Result, want ...[]int) bool {
	return slices.EqualFunc(res.Components, want, slices.Equal[[]int])
}

func TestQueryStringRendering(t *testing.T) {
	s := mickeyQuery().String()
	for _, want := range []string{"Reservation(Mickey", "Reservation(Minnie", "Flights(", "?dest = LA"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestBodyTables(t *testing.T) {
	q := minnieQuery()
	bt := q.BodyTables()
	if len(bt) != 2 || bt[0] != "Flights" || bt[1] != "Airlines" {
		t.Errorf("BodyTables = %v", bt)
	}
}

func TestReadCols(t *testing.T) {
	flights := NewAtom("Flights", V("fno"), V("fdate"), V("dest"), V("seats"))
	cases := []struct {
		name string
		q    *Query
		atom Atom
		want []int
	}{
		{"head vars and a Where constant; seats is a singleton",
			&Query{
				Head:  []Atom{NewAtom("R", CStr("A"), V("fno"), V("fdate"))},
				Body:  []Atom{flights},
				Where: []Constraint{{Left: V("dest"), Op: OpEq, Right: CStr("LA")}},
				Bind:  []string{"fno"},
			}, flights, []int{0, 1, 2}},
		{"constant in the atom",
			&Query{
				Head: []Atom{NewAtom("R", V("fno"))},
				Body: []Atom{NewAtom("Flights", V("fno"), V("fdate"), CStr("LA"), V("seats"))},
				Bind: []string{"fno"},
			}, NewAtom("Flights", V("fno"), V("fdate"), CStr("LA"), V("seats")), []int{0, 2}},
		{"join variable shared with another body atom",
			&Query{
				Head: []Atom{NewAtom("R", V("fno"))},
				Body: []Atom{flights, NewAtom("Airlines", V("fno"), V("name"))},
				Bind: []string{"fno"},
			}, NewAtom("Airlines", V("fno"), V("name")), []int{0}},
		{"variable repeated within the atom",
			&Query{
				Head: []Atom{NewAtom("R", V("y"))},
				Body: []Atom{NewAtom("Pairs", V("x"), V("x"), V("y"), V("z"))},
				Bind: []string{"y"},
			}, NewAtom("Pairs", V("x"), V("x"), V("y"), V("z")), []int{0, 1, 2}},
		{"Bind variable that is otherwise a singleton",
			&Query{
				Head: []Atom{NewAtom("R", CStr("A"))},
				Body: []Atom{flights},
				Bind: []string{"seats"},
			}, flights, []int{3}},
		{"no Bind: Answer.Bindings hands back every variable",
			&Query{
				Head: []Atom{NewAtom("R", V("fno"))},
				Body: []Atom{flights},
			}, flights, []int{0, 1, 2, 3}},
		{"only singletons: nil, the whole table",
			&Query{
				Head: []Atom{NewAtom("R", CStr("A"))},
				Body: []Atom{NewAtom("Flights", V("fno"), V("fdate"), V("dest"), V("seats")), NewAtom("Airlines", V("x"), V("name"))},
				Bind: []string{"name"},
			}, flights, nil},
	}
	for _, c := range cases {
		if got := c.q.ReadCols(c.atom); !slices.Equal(got, c.want) || (got == nil) != (c.want == nil) {
			t.Errorf("%s: ReadCols = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestArithmeticAndDisjunction checks arithmetic terms in constraints and
// heads (a NULL operand makes NULL; mismatched kinds are an error) and
// disjunctive constraints (a NULL comparison is false in every disjunct).
func TestArithmeticAndDisjunction(t *testing.T) {
	db := MapReader{"T": {
		{types.Int(1), types.Int(10)},
		{types.Int(2), types.Null()},
		{types.Int(3), types.Int(30)},
	}}
	q := &Query{
		Head: []Atom{NewAtom("R", V("k"), Term{Arith: &Arith{Sub: true, L: V("n"), R: CInt(1)}})},
		Body: []Atom{NewAtom("T", V("k"), V("n"))},
		Where: []Constraint{{Or: [][]Constraint{
			{{Left: Term{Arith: &Arith{L: V("n"), R: CInt(5)}}, Op: OpGt, Right: CInt(20)}},
			{{Left: V("k"), Op: OpEq, Right: CInt(2)}, {Left: V("n"), Op: OpEq, Right: C(types.Null())}},
			{{Left: V("k"), Op: OpEq, Right: CInt(1)}},
		}}},
	}
	gs, err := Ground(q, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, g := range gs {
		got = append(got, g.Head[0].String())
	}
	if want := "R(1, 9) R(3, 29)"; strings.Join(got, " ") != want {
		t.Errorf("groundings = %v, want %s", got, want)
	}
	if s := q.String(); !strings.Contains(s, "(?n - 1)") || !strings.Contains(s, "OR[[(?n + 5) > 20] [") {
		t.Errorf("rendering %q", s)
	}
	q.Head = []Atom{NewAtom("R", V("k"), Term{Arith: &Arith{Sub: true, L: V("n"), R: CStr("x")}})}
	if _, err := Ground(q, db, 0); err == nil {
		t.Error("INT - VARCHAR grounded")
	}
	q.Body[0].Args[1] = Term{Arith: &Arith{L: V("n"), R: CInt(1)}}
	if err := q.Validate(); err == nil {
		t.Error("arithmetic body argument validated")
	}
}

// TestQueryEqual: Equal tells queries apart term by term — where their
// renderings agree, too — and allocates nothing.
func TestQueryEqual(t *testing.T) {
	build := func() *Query {
		q := mickeyQuery()
		q.Bind = []string{"fno"}
		q.Where = append(q.Where,
			Constraint{Left: V("fno"), Op: OpLt, Right: Term{Arith: &Arith{L: CInt(100), R: CInt(1)}}},
			Constraint{Or: [][]Constraint{{{Left: V("fno"), Op: OpEq, Right: CInt(122)}}, {{Left: V("fno"), Op: OpEq, Right: P(0)}}}})
		return q
	}
	q := build()
	if !q.Equal(build()) {
		t.Fatal("a query differs from its rebuild")
	}
	other := build()
	if n := testing.AllocsPerRun(100, func() { q.Equal(other) }); n != 0 {
		t.Fatalf("Equal allocates %v per call", n)
	}
	for name, edit := range map[string]func(*Query){
		"constant kind":  func(q *Query) { q.Head[0].Args[0] = C(types.Int(7)) },
		"variable":       func(q *Query) { q.Head[0].Args[1] = V("other") },
		"relation":       func(q *Query) { q.Body[0].Rel = "Airlines" },
		"bound variable": func(q *Query) { q.Bind = nil },
		"choice":         func(q *Query) { q.Choose = 2 },
		"arithmetic":     func(q *Query) { q.Where[len(q.Where)-2].Right.Arith.Sub = true },
		"parameter":      func(q *Query) { q.Where[len(q.Where)-1].Or[1][0].Right = P(1) },
		"operator":       func(q *Query) { q.Where[0].Op = OpNe },
		"postcondition":  func(q *Query) { q.Post = nil },
	} {
		e := build()
		edit(e)
		if q.Equal(e) || e.Equal(q) {
			t.Errorf("%s: edited query reads equal", name)
		}
	}
	// Str("7") and Int(7) render alike; the queries still differ.
	a, b := build(), build()
	a.Head[0].Args[0], b.Head[0].Args[0] = CStr("7"), CInt(7)
	if a.String() != b.String() || a.Equal(b) {
		t.Fatalf("renderings %q / %q, Equal %v", a, b, a.Equal(b))
	}
}
