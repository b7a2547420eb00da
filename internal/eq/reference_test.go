package eq

import (
	"fmt"
	"strings"

	"repro/internal/types"
)

// sliceReader is the materialized access path the reference executor reads
// through: whole relations and whole probe results as slices. The test
// fixtures implement it next to the cursor surface the shipped pipeline
// consumes.
type sliceReader interface {
	CursorReader
	Scan(table string) ([]types.Tuple, error)
	Probe(table string, cols []int, vals []types.Value) ([]types.Tuple, error)
}

// Scan returns the named relation's rows.
func (m MapReader) Scan(table string) ([]types.Tuple, error) {
	rows, ok := m[table]
	if !ok {
		return nil, fmt.Errorf("eq: no such relation %s", table)
	}
	return rows, nil
}

// Probe is never planned (CanProbe is false).
func (m MapReader) Probe(table string, _ []int, _ []types.Value) ([]types.Tuple, error) {
	return nil, fmt.Errorf("eq: relation %s has no index", table)
}

// GroundMaterialized is the pre-streaming grounding executor, kept as the
// differential-testing oracle: it consumes the same joinPlan as the
// streaming pipeline — its join order, access paths and pushed-down
// constraints, not the slot program compiled from them; it binds a map
// valuation — but materializes every level without a covering index as a
// full row slice — bound or not, so the row loop alone filters what the
// pipeline's unindexed probes serve — and every index probe as a
// per-valuation slice, exactly as Ground did before the cursor rewrite. The
// streaming ≡ materialized property test asserts Ground enumerates
// byte-identical groundings in identical order.
func GroundMaterialized(q *Query, r sliceReader, maxGroundings int) ([]*Grounding, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	plan := planQuery(q, r)

	// Materialize every scan level up front, one Scan per relation.
	scans := make(map[string][]types.Tuple)
	scanRows := make([][]types.Tuple, len(plan.steps))
	for i := range plan.steps {
		step := &plan.steps[i]
		if step.indexed {
			continue
		}
		rows, ok := scans[step.atom.Rel]
		if !ok {
			var err error
			rows, err = r.Scan(step.atom.Rel)
			if err != nil {
				return nil, fmt.Errorf("eq: grounding read of %s: %w", step.atom.Rel, err)
			}
			scans[step.atom.Rel] = rows
		}
		scanRows[i] = rows
	}

	var out []*Grounding
	seen := make(map[string]bool)
	val := make(Valuation)
	eqBound := make(map[string]types.Value)
	for k, name := range plan.vars {
		if plan.eq[k].ok {
			eqBound[name] = plan.eq[k].val
		}
	}

	var join func(i int) error
	join = func(i int) error {
		if maxGroundings > 0 && len(out) >= maxGroundings {
			return nil
		}
		if i == len(plan.steps) {
			for _, c := range plan.final {
				ok, err := c.c.eval(val)
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
			}
			g := &Grounding{Vars: plan.vars, Vals: make([]types.Value, len(plan.vars))}
			for k, name := range plan.vars {
				g.Vals[k] = val[name]
			}
			for _, a := range q.Head {
				ga, err := a.instantiate(val)
				if err != nil {
					return err
				}
				g.Head = append(g.Head, ga)
			}
			for _, a := range q.Post {
				ga, err := a.instantiate(val)
				if err != nil {
					return err
				}
				g.Post = append(g.Post, ga)
			}
			if k := g.key(); !seen[k] {
				seen[k] = true
				out = append(out, g)
			}
			return nil
		}
		step := &plan.steps[i]
		atom := step.atom
		rows := scanRows[i]
		if step.indexed {
			vals := make([]types.Value, len(step.probeCols))
			for k, c := range step.probeCols {
				t := atom.Args[c]
				switch {
				case !t.IsVar:
					vals[k] = t.Value
				default:
					if v, ok := val[t.Name]; ok {
						vals[k] = v
					} else if v, ok := eqBound[t.Name]; ok {
						vals[k] = v
					} else {
						vals[k] = partnerValue(q, val, t.Name)
					}
				}
			}
			var err error
			rows, err = r.Probe(atom.Rel, step.probeCols, vals)
			if err != nil {
				return fmt.Errorf("eq: grounding read of %s: %w", atom.Rel, err)
			}
		}
		for _, row := range rows {
			if len(row) != len(atom.Args) {
				return fmt.Errorf("eq: atom %s has arity %d but relation has arity %d", atom, len(atom.Args), len(row))
			}
			bound := make([]string, 0, len(atom.Args))
			ok := true
			for j, t := range atom.Args {
				if t.IsVar {
					if existing, isBound := val[t.Name]; isBound {
						if !existing.Equal(row[j]) {
							ok = false
							break
						}
					} else {
						if c, isEq := eqBound[t.Name]; isEq && !c.Equal(row[j]) {
							ok = false
							break
						}
						val[t.Name] = row[j]
						bound = append(bound, t.Name)
					}
				} else if !t.Value.Equal(row[j]) {
					ok = false
					break
				}
			}
			if ok {
				for _, c := range step.checks {
					holds, err := c.c.eval(val)
					if err != nil {
						return err
					}
					if !holds {
						ok = false
						break
					}
				}
			}
			if ok {
				if err := join(i + 1); err != nil {
					return err
				}
			}
			for _, name := range bound {
				delete(val, name)
			}
		}
		return nil
	}
	if err := join(0); err != nil {
		return nil, err
	}
	return out, nil
}

// partnerValue is the value of a bound variable a ?v = ?w constraint
// equates with v: the planner probes such a position with it.
func partnerValue(q *Query, val Valuation, v string) types.Value {
	for _, c := range q.Where {
		if c.Op != OpEq || !c.Left.IsVar || !c.Right.IsVar {
			continue
		}
		if w, ok := val[c.Right.Name]; ok && c.Left.Name == v {
			return w
		}
		if w, ok := val[c.Left.Name]; ok && c.Right.Name == v {
			return w
		}
	}
	return types.Null()
}

// Valuation assigns database values to variables: the oracle's valuation,
// independent of the pipeline's slots.
type Valuation map[string]types.Value

// clone copies the valuation.
func (v Valuation) clone() Valuation {
	out := make(Valuation, len(v))
	for k, val := range v {
		out[k] = val
	}
	return out
}

// instantiate applies a valuation to the atom's arguments; every variable
// must be bound.
func (a Atom) instantiate(val Valuation) (GroundAtom, error) {
	args := make(types.Tuple, len(a.Args))
	for i, t := range a.Args {
		if t.IsVar {
			v, ok := val[t.Name]
			if !ok {
				return GroundAtom{}, fmt.Errorf("eq: unbound variable %s in %s", t.Name, a)
			}
			args[i] = v
		} else {
			args[i] = t.Value
		}
	}
	return GroundAtom{Rel: a.Rel, Args: args}, nil
}

// eval evaluates the constraint under a valuation; both sides must be
// bound.
func (c Constraint) eval(val Valuation) (bool, error) {
	resolve := func(t Term) (types.Value, error) {
		if !t.IsVar {
			return t.Value, nil
		}
		v, ok := val[t.Name]
		if !ok {
			return types.Null(), fmt.Errorf("eq: unbound variable %s", t.Name)
		}
		return v, nil
	}
	l, err := resolve(c.Left)
	if err != nil {
		return false, err
	}
	r, err := resolve(c.Right)
	if err != nil {
		return false, err
	}
	return c.Op.holds(l, r)
}

// Key returns a canonical string for the ground atom. A date folds into
// an int with the same payload, as Equal has it.
func (g GroundAtom) Key() string {
	args := make(types.Tuple, len(g.Args))
	for i, v := range g.Args {
		if args[i] = v; v.Kind() == types.KindDate {
			args[i] = types.Int(v.Int64())
		}
	}
	return g.Rel + "|" + string(types.EncodeTuple(nil, args))
}

// key is a canonical string for a grounding's (head, post) identity — the
// identity the pipeline deduplicates by.
func (g *Grounding) key() string {
	var b strings.Builder
	for _, a := range g.Head {
		b.WriteString(a.Key())
		b.WriteByte('#')
	}
	b.WriteByte('|')
	for _, a := range g.Post {
		b.WriteString(a.Key())
		b.WriteByte('#')
	}
	return b.String()
}
