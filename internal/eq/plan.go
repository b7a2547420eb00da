package eq

import (
	"fmt"
	"slices"

	"repro/internal/types"
)

// Two-phase statistics-free join planner.
//
// Phase 1 (join order + access paths) generalizes the boundness heuristic:
// atoms are ordered greedily, and for each position the planner picks the
// not-yet-placed atom with
//
//  1. the most bound argument positions (constants, variables constrained
//     equal to a constant, variables bound by earlier atoms or constrained
//     equal to one that is) — maximally selective joins run outermost;
//  2. among ties, an atom whose bound positions a real index covers
//     (CursorReader.CanProbe) — an index probe touches only matching rows;
//  3. among ties, the fewest distinct free variables — fewer new bindings
//     means a narrower downstream cross product;
//  4. among ties, submission order — the deterministic final tie-break.
//
// No cardinality estimates, no histograms: for the pattern-shaped queries
// entangled queries compile to, boundness dominates selectivity, and every
// tie-break is computable from the query text plus index metadata alone.
// The order is therefore a pure function of (query, index metadata), so
// fresh, cached, and re-run evaluation enumerate identically.
//
// Phase 2 (selection pushdown) assigns each WHERE constraint to the
// earliest join level at which every variable it mentions is bound by an
// atom — the streaming executor applies it the moment a row binds that
// level, discarding the row before any deeper cursor is opened. Constraints
// mentioning a variable no atom binds go to the final set and surface the
// same unbound-variable error the materialized path raised at emission.
//
// Every level with bound positions opens through ProbeCursor (over an
// index's columns when one covers them, else over all of them); only levels
// with none scan. A probe yields a scan's rows filtered, in scan order, so
// CanProbe shapes join order but never which rows a level yields.
//
// The plan is compiled against a slot valuation: each body variable gets a
// slot, in first-mention order of the body. Whether a variable is already
// bound at a given row position is fixed by the join order, so each level
// compiles to one bind-or-match operation per position, probes and checks
// read slots, and the head and postcondition instantiate from them — the
// executor keeps no map of what is bound and unbinds nothing.
//
// The plan fetches no rows: access-path choice consults only
// CursorReader.CanProbe. Row flow is the executor's job (stream.go), which
// is what lets planning stay allocation-light and the pipeline lazy.

// planStep is one level of the join: an atom, its access path, and the
// constraints to apply as soon as the level's row is bound, all compiled
// against the valuation's slots.
type planStep struct {
	atom      Atom
	indexed   bool        // a real index covers probeCols (CanProbe)
	probeCols []int       // schema positions the level probes on; empty: it scans
	probeKey  []operand   // per probeCols entry: where the probe value comes from
	args      []argOp     // per atom position: how the row's value binds or matches
	checks    []slotCheck // pushed-down constraints
}

// joinPlan is the executable plan for one query's body.
type joinPlan struct {
	steps []planStep
	final []slotCheck // constraints no level fully binds (checked at emission)

	// Slot valuation: vars[k] is the body variable slot k holds, in
	// first-mention order of the body, eq[k] the constant a ?v = c
	// constraint fixes it to, and pairs the slots ?x = ?y constraints
	// equate. head and post instantiate from the slots.
	vars       []string
	eq         []eqConst
	pairs      [][2]int32
	head, post []slotAtom

	// Planning scratch: the level that binds each slot, which atoms are
	// placed, a candidate's bound positions.
	level  []int32
	placed []bool
	pos    []int
}

// eqConst is the constant a ?v = c constraint fixes a variable to, if ok.
type eqConst struct {
	val types.Value
	ok  bool
}

// Operand slots that name no valuation slot.
const (
	constSlot   = -1 // the operand is the constant val
	unboundSlot = -2 // a variable no body atom binds (val holds its name): evaluating it is an error
	arithSlot   = -3 // the operand is arith's sum or difference
)

// operand is a term compiled against the slot valuation.
type operand struct {
	slot  int32
	val   types.Value // the constant when slot == constSlot
	arith *arithOp    // when slot == arithSlot
}

// arithOp is an arithmetic term compiled against the slot valuation.
type arithOp struct {
	sub  bool
	l, r operand
}

// get evaluates the operand under the slot valuation vals.
func (o operand) get(vals []types.Value) (types.Value, error) {
	switch o.slot {
	case constSlot:
		return o.val, nil
	case unboundSlot:
		return types.Value{}, fmt.Errorf("eq: unbound variable %s", o.val.Str64())
	case arithSlot:
		l, err := o.arith.l.get(vals)
		if err != nil {
			return l, err
		}
		r, err := o.arith.r.get(vals)
		if err != nil || l.IsNull() || r.IsNull() {
			return types.Value{}, err
		}
		if o.arith.sub {
			return l.Sub(r)
		}
		return l.Add(r)
	}
	return vals[o.slot], nil
}

// slotCheck is a WHERE constraint compiled against the slot valuation: a
// comparison of l and r, or, when or is set, a disjunction of
// conjunctions.
type slotCheck struct {
	c    Constraint
	l, r operand
	or   [][]slotCheck
}

// eval evaluates the constraint; every variable it reads must be bound.
func (sc *slotCheck) eval(vals []types.Value) (bool, error) {
	if sc.or != nil {
		for _, conj := range sc.or {
			if ok, err := checkAll(conj, vals); ok || err != nil {
				return ok, err
			}
		}
		return false, nil
	}
	l, err := sc.l.get(vals)
	if err != nil {
		return false, err
	}
	r, err := sc.r.get(vals)
	if err != nil {
		return false, err
	}
	return sc.c.Op.holds(l, r)
}

// checkAll evaluates a conjunction of constraints.
func checkAll(cs []slotCheck, vals []types.Value) (bool, error) {
	for i := range cs {
		ok, err := cs[i].eval(vals)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// slotAtom is a head or postcondition atom compiled against the slot
// valuation.
type slotAtom struct {
	atom Atom
	args []operand
}

// argOp is what a join level does with one position of its row: match a
// constant (slot == constSlot), match the slot an earlier position or level
// bound (bind false), or bind the slot — first checking the constant a
// ?v = c constraint fixes, when hasEq.
type argOp struct {
	slot  int32
	bind  bool
	hasEq bool
	val   types.Value // the constant to match (constSlot) or the ?v = c value (hasEq)
}

// probePath decides the access path for an atom given its currently-bound
// argument positions: a full-cover index probe when the reader has one,
// else an index probe over any single bound position (the match loop
// re-verifies the rest, so a subset probe is semantically equivalent), else
// an unindexed probe over every bound position; nothing bound, a scan. The
// columns returned alias boundPos.
func probePath(r CursorReader, rel string, boundPos []int) (indexed bool, cols []int) {
	if len(boundPos) == 0 {
		return false, nil
	}
	if r.CanProbe(rel, boundPos) {
		return true, boundPos
	}
	for i := range boundPos {
		if one := boundPos[i : i+1 : i+1]; r.CanProbe(rel, one) {
			return true, one
		}
	}
	return false, boundPos
}

// planQuery builds the join plan for q against r's index metadata.
func planQuery(q *Query, r CursorReader) *joinPlan {
	plan := &joinPlan{}
	plan.build(q, r)
	return plan
}

// build plans q into plan, reusing the memory of the plan it held before.
func (plan *joinPlan) build(q *Query, r CursorReader) {
	arity := 0
	for _, a := range q.Body {
		arity += len(a.Args)
	}
	plan.vars = resized(plan.vars, arity)[:0]
	for _, a := range q.Body {
		for _, t := range a.Args {
			if t.IsVar && plan.slot(t.Name) < 0 {
				plan.vars = append(plan.vars, t.Name)
			}
		}
	}
	plan.eqBindings(q)

	// level: the level whose atom binds the slot, -1 before it is placed.
	// Join order counts a slot bound once placed, fixed by a ?v = c
	// constraint, or equated with a placed slot; the executor, only once
	// placed.
	level := resized(plan.level, len(plan.vars))
	for k := range level {
		level[k] = -1
	}
	plan.level = level
	bound := func(t Term) bool {
		if !t.IsVar {
			return true
		}
		k := plan.slot(t.Name)
		return plan.eq[k].ok || level[k] >= 0 || plan.partner(k, level) >= 0
	}
	n := len(q.Body)
	placed := zeroed(plan.placed, n)
	plan.placed = placed
	plan.steps = resized(plan.steps, n)
	pos := resized(plan.pos, arity)[:0] // a candidate's bound positions
	for lv := range plan.steps {
		best, bestBound, bestFree, bestIndexed := -1, 0, 0, false
		for i, atom := range q.Body {
			if placed[i] {
				continue
			}
			pos = pos[:0]
			free := 0
			for j, t := range atom.Args {
				switch {
				case bound(t):
					pos = append(pos, j)
				case firstMention(atom.Args, j):
					free++
				}
			}
			indexed, _ := probePath(r, atom.Rel, pos)
			if best < 0 || better(len(pos), indexed, free, bestBound, bestIndexed, bestFree) {
				best, bestBound, bestFree, bestIndexed = i, len(pos), free, indexed
			}
		}
		placed[best] = true
		atom := q.Body[best]
		pos = pos[:0]
		for j, t := range atom.Args {
			if bound(t) {
				pos = append(pos, j)
			}
		}
		st := &plan.steps[lv]
		var cols []int
		st.atom = atom
		st.indexed, cols = probePath(r, atom.Rel, pos)
		st.probeCols = resized(st.probeCols, len(cols))
		copy(st.probeCols, cols)
		// A probe runs before the level binds anything: its variables are
		// bound by an earlier level, fixed by a ?v = c constraint, or
		// equated with a slot an earlier level binds (the ?x = ?y check
		// still runs, so a NULL key matches nothing).
		st.probeKey = resized(st.probeKey, len(cols))
		for i, c := range st.probeCols {
			o := plan.term(atom.Args[c])
			if s := o.slot; s >= 0 && level[s] < 0 {
				if plan.eq[s].ok {
					o = operand{slot: constSlot, val: plan.eq[s].val}
				} else {
					o = operand{slot: plan.partner(s, level)}
				}
			}
			st.probeKey[i] = o
		}
		st.args = resized(st.args, len(atom.Args))
		for j, t := range atom.Args {
			op := argOp{slot: constSlot, val: t.Value}
			if t.IsVar {
				k := plan.slot(t.Name)
				op = argOp{slot: k}
				if level[k] < 0 {
					level[k] = int32(lv)
					op.bind = true
					op.val, op.hasEq = plan.eq[k].val, plan.eq[k].ok
				}
			}
			st.args[j] = op
		}
		st.checks = st.checks[:0]
	}
	plan.pos = pos

	// Selection pushdown: a constraint runs at the level that binds the
	// last of its variables (a constant-only one at the outermost level);
	// one over a variable no atom binds is checked at emission, where it
	// fails as unbound.
	plan.final = plan.final[:0]
	for _, c := range q.Where {
		lv := int32(0)
		c.eachVar(func(v string) {
			if k := plan.slot(v); k < 0 || lv < 0 {
				lv = -1
			} else {
				lv = max(lv, level[k])
			}
		})
		sc := plan.check(c)
		if lv < 0 || n == 0 {
			plan.final = append(plan.final, sc)
			continue
		}
		plan.steps[lv].checks = append(plan.steps[lv].checks, sc)
	}
	plan.head = plan.atoms(plan.head, q.Head)
	plan.post = plan.atoms(plan.post, q.Post)
}

// better reports whether a candidate atom (bound positions, index cover,
// distinct free variables) ranks before the best so far. Equal on all
// counts, the earlier candidate stays (submission order).
func better(bound int, indexed bool, free int, bestBound int, bestIndexed bool, bestFree int) bool {
	if bound != bestBound {
		return bound > bestBound
	}
	if indexed != bestIndexed {
		return indexed
	}
	return free < bestFree
}

// firstMention reports whether args[j] is the first occurrence of its
// variable in args.
func firstMention(args []Term, j int) bool {
	for _, t := range args[:j] {
		if t.IsVar && t.Name == args[j].Name {
			return false
		}
	}
	return true
}

// partner returns the first slot a ?x = ?y constraint equates with slot k
// that a placed level binds, or -1.
func (plan *joinPlan) partner(k int32, level []int32) int32 {
	for _, p := range plan.pairs {
		for i, s := range p {
			if s == k && level[p[1-i]] >= 0 {
				return p[1-i]
			}
		}
	}
	return -1
}

// slot returns the slot of body variable name, or -1.
func (plan *joinPlan) slot(name string) int32 {
	return int32(slices.Index(plan.vars, name))
}

// term compiles a term against the slots.
func (plan *joinPlan) term(t Term) operand {
	switch {
	case t.Arith != nil:
		return operand{slot: arithSlot, arith: &arithOp{sub: t.Arith.Sub, l: plan.term(t.Arith.L), r: plan.term(t.Arith.R)}}
	case !t.IsVar:
		return operand{slot: constSlot, val: t.Value}
	}
	if k := plan.slot(t.Name); k >= 0 {
		return operand{slot: k}
	}
	return operand{slot: unboundSlot, val: types.Str(t.Name)}
}

// check compiles a constraint against the slots.
func (plan *joinPlan) check(c Constraint) slotCheck {
	if c.Or == nil {
		return slotCheck{c: c, l: plan.term(c.Left), r: plan.term(c.Right)}
	}
	sc := slotCheck{c: c, or: make([][]slotCheck, len(c.Or))}
	for i, conj := range c.Or {
		sc.or[i] = make([]slotCheck, len(conj))
		for j, d := range conj {
			sc.or[i][j] = plan.check(d)
		}
	}
	return sc
}

// atoms compiles head or postcondition atoms against the slots into the
// memory of out.
func (plan *joinPlan) atoms(out []slotAtom, as []Atom) []slotAtom {
	out = resized(out, len(as))
	for i, a := range as {
		ops := resized(out[i].args, len(a.Args))
		for j, t := range a.Args {
			ops[j] = plan.term(t)
		}
		out[i] = slotAtom{atom: a, args: ops}
	}
	return out
}
