package eq

import (
	"repro/internal/types"
)

// Two-phase statistics-free join planner.
//
// Phase 1 (join order + access paths) generalizes the boundness heuristic:
// atoms are ordered greedily, and for each position the planner picks the
// not-yet-placed atom with
//
//  1. the most bound argument positions (constants, variables constrained
//     equal to a constant, variables bound by earlier atoms) — maximally
//     selective joins run outermost;
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
// The plan fetches no rows: access-path choice consults only
// CursorReader.CanProbe. Row flow is the executor's job (stream.go), which
// is what lets planning stay allocation-light and the pipeline lazy.

// planStep is one level of the join: an atom, its access path, and the
// constraints to apply as soon as the level's row is bound.
type planStep struct {
	atom      Atom
	indexed   bool  // a real index covers probeCols (CanProbe)
	probeCols []int // schema positions the level probes on; nil: it scans
	checks    []Constraint
}

// joinPlan is the executable plan for one query's body.
type joinPlan struct {
	steps   []planStep
	final   []Constraint // constraints no level fully binds (checked at emission)
	eqBound map[string]types.Value
}

// probePath decides the access path for an atom given its currently-bound
// argument positions: a full-cover index probe when the reader has one,
// else an index probe over any single bound position (the match loop
// re-verifies the rest, so a subset probe is semantically equivalent), else
// an unindexed probe over every bound position; nothing bound, a scan.
func probePath(r CursorReader, rel string, boundPos []int) (indexed bool, cols []int) {
	if len(boundPos) == 0 {
		return false, nil
	}
	if r.CanProbe(rel, boundPos) {
		return true, boundPos
	}
	for _, c := range boundPos {
		if r.CanProbe(rel, []int{c}) {
			return true, []int{c}
		}
	}
	return false, boundPos
}

// planQuery builds the join plan for q against r's index metadata.
func planQuery(q *Query, r CursorReader) *joinPlan {
	eqBound := eqBindings(q)
	n := len(q.Body)
	bound := make(map[string]bool, len(eqBound))
	for name := range eqBound {
		bound[name] = true
	}

	type candidate struct {
		idx       int
		boundCnt  int
		freeCnt   int
		indexed   bool
		probeCols []int
	}
	better := func(c, best candidate) bool {
		if c.boundCnt != best.boundCnt {
			return c.boundCnt > best.boundCnt
		}
		if c.indexed != best.indexed {
			return c.indexed
		}
		return c.freeCnt < best.freeCnt
		// Equal on all counts: keep the earlier candidate (submission order).
	}

	used := make([]bool, n)
	steps := make([]planStep, 0, n)
	free := make(map[string]bool)
	for len(steps) < n {
		best := candidate{idx: -1}
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			atom := q.Body[i]
			var boundPos []int
			for name := range free {
				delete(free, name)
			}
			for j, t := range atom.Args {
				if !t.IsVar || bound[t.Name] {
					boundPos = append(boundPos, j)
				} else {
					free[t.Name] = true
				}
			}
			indexed, probeCols := probePath(r, atom.Rel, boundPos)
			c := candidate{idx: i, boundCnt: len(boundPos), freeCnt: len(free), indexed: indexed, probeCols: probeCols}
			if best.idx < 0 || better(c, best) {
				best = c
			}
		}
		used[best.idx] = true
		atom := q.Body[best.idx]
		steps = append(steps, planStep{atom: atom, indexed: best.indexed, probeCols: best.probeCols})
		for _, t := range atom.Args {
			if t.IsVar {
				bound[t.Name] = true
			}
		}
	}

	plan := &joinPlan{steps: steps, eqBound: eqBound}

	// Selection pushdown. atomBound tracks variables bound by atoms at
	// levels <= L (eqBound alone does not put a variable into the valuation;
	// only a row binding does, so only atom-bound variables make a
	// constraint evaluable).
	atomBound := make(map[string]bool)
	levelOf := func(c Constraint) int {
		for lv := range plan.steps {
			plan.steps[lv].atom.vars(atomBound)
			ok := true
			for _, t := range []Term{c.Left, c.Right} {
				if t.IsVar && !atomBound[t.Name] {
					ok = false
					break
				}
			}
			if ok {
				return lv
			}
		}
		return -1
	}
	for _, c := range q.Where {
		for name := range atomBound {
			delete(atomBound, name)
		}
		if !c.Left.IsVar && !c.Right.IsVar && len(plan.steps) > 0 {
			// Constant-only comparison: evaluable at the outermost level.
			plan.steps[0].checks = append(plan.steps[0].checks, c)
			continue
		}
		if lv := levelOf(c); lv >= 0 {
			plan.steps[lv].checks = append(plan.steps[lv].checks, c)
		} else {
			plan.final = append(plan.final, c)
		}
	}
	return plan
}
