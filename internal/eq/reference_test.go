package eq

import (
	"fmt"

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
// streaming pipeline but materializes every level without a covering index
// as a full row slice — bound or not, so the row loop alone filters what
// the pipeline's unindexed probes and shared partitions serve — and every
// index probe as a per-valuation slice, exactly as Ground did before the
// cursor rewrite. The streaming ≡ materialized property test asserts Ground
// enumerates byte-identical groundings in identical order.
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

	var join func(i int) error
	join = func(i int) error {
		if maxGroundings > 0 && len(out) >= maxGroundings {
			return nil
		}
		if i == len(plan.steps) {
			for _, c := range plan.final {
				ok, err := c.eval(val)
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
			}
			g := &Grounding{Val: val.clone()}
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
					} else {
						vals[k] = plan.eqBound[t.Name]
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
						if c, isEq := plan.eqBound[t.Name]; isEq && !c.Equal(row[j]) {
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
					holds, err := c.eval(val)
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
