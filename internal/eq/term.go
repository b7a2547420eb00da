// Package eq implements entangled queries — the coordination primitive of
// Gupta et al. (SIGMOD 2011) that entangled transactions are built on.
//
// Queries are handled in the paper's intermediate representation
// (Appendix A):
//
//	{C} H ⇐ B
//
// where the head H and postcondition C are conjunctions of atoms over
// ANSWER relations, and the body B is a conjunction of atoms over database
// relations plus comparison constraints. Evaluation (1) grounds each query
// by enumerating valuations of B over the database, then (2) searches for a
// coordinating set: at most one grounding per query such that the union of
// the chosen heads contains every chosen postcondition atom — the mutual
// constraint satisfaction of Figure 1(b).
package eq

import (
	"fmt"
	"strings"

	"repro/internal/types"
)

// Term is a constant or a variable appearing in an atom or constraint.
type Term struct {
	IsVar bool
	Name  string      // variable name when IsVar
	Value types.Value // constant value when !IsVar
}

// V returns a variable term.
func V(name string) Term { return Term{IsVar: true, Name: name} }

// C returns a constant term.
func C(v types.Value) Term { return Term{Value: v} }

// CStr, CInt are constant-term shorthands.
func CStr(s string) Term { return C(types.Str(s)) }
func CInt(i int64) Term  { return C(types.Int(i)) }

// String renders the term.
func (t Term) String() string {
	if t.IsVar {
		return "?" + t.Name
	}
	return t.Value.String()
}

// Atom is a relational atom: Rel(Args...).
type Atom struct {
	Rel  string
	Args []Term
}

// NewAtom builds an atom.
func NewAtom(rel string, args ...Term) Atom { return Atom{Rel: rel, Args: args} }

// String renders the atom.
func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return fmt.Sprintf("%s(%s)", a.Rel, strings.Join(parts, ", "))
}

// vars appends the variable names of the atom to out.
func (a Atom) vars(out map[string]bool) {
	for _, t := range a.Args {
		if t.IsVar {
			out[t.Name] = true
		}
	}
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

// GroundAtom is an atom with all arguments constant.
type GroundAtom struct {
	Rel  string
	Args types.Tuple
}

// Key returns a canonical map key for the ground atom.
func (g GroundAtom) Key() string { return g.Rel + "|" + g.Args.Key() }

// String renders the ground atom.
func (g GroundAtom) String() string {
	parts := make([]string, len(g.Args))
	for i, v := range g.Args {
		parts[i] = v.String()
	}
	return fmt.Sprintf("%s(%s)", g.Rel, strings.Join(parts, ", "))
}

// CmpOp is a comparison operator in a body constraint.
type CmpOp int

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

func (o CmpOp) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", int(o))
	}
}

// Constraint is a comparison between two terms in the body.
type Constraint struct {
	Left  Term
	Op    CmpOp
	Right Term
}

// String renders the constraint.
func (c Constraint) String() string {
	return fmt.Sprintf("%s %s %s", c.Left, c.Op, c.Right)
}

// eval evaluates the constraint under a valuation; both sides must be
// bound. SQL three-valued logic: a comparison involving NULL is false.
func (c Constraint) eval(val Valuation) (bool, error) {
	l, err := resolve(c.Left, val)
	if err != nil {
		return false, err
	}
	r, err := resolve(c.Right, val)
	if err != nil {
		return false, err
	}
	if l.IsNull() || r.IsNull() {
		return false, nil
	}
	cmp := l.Compare(r)
	switch c.Op {
	case OpEq:
		return l.Equal(r), nil
	case OpNe:
		return !l.Equal(r), nil
	case OpLt:
		return cmp < 0, nil
	case OpLe:
		return cmp <= 0, nil
	case OpGt:
		return cmp > 0, nil
	case OpGe:
		return cmp >= 0, nil
	default:
		return false, fmt.Errorf("eq: unknown operator %v", c.Op)
	}
}

// bound reports whether every variable the constraint mentions is bound.
func (c Constraint) bound(val Valuation) bool {
	for _, t := range []Term{c.Left, c.Right} {
		if t.IsVar {
			if _, ok := val[t.Name]; !ok {
				return false
			}
		}
	}
	return true
}

func resolve(t Term, val Valuation) (types.Value, error) {
	if !t.IsVar {
		return t.Value, nil
	}
	v, ok := val[t.Name]
	if !ok {
		return types.Null(), fmt.Errorf("eq: unbound variable %s", t.Name)
	}
	return v, nil
}

// Valuation assigns database values to variables.
type Valuation map[string]types.Value

// clone copies the valuation.
func (v Valuation) clone() Valuation {
	out := make(Valuation, len(v))
	for k, val := range v {
		out[k] = val
	}
	return out
}
