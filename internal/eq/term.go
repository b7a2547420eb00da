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
	"hash/maphash"
	"slices"
	"strings"

	"repro/internal/types"
)

// Term is a constant, a variable, a parameter, or the sum or difference of
// two terms, appearing in an atom or constraint. A sum or difference may
// appear in a constraint or a head atom, never in a body atom. A parameter
// is a constant whose value each grounding of a Plan binds (GroundPlan).
type Term struct {
	IsVar bool
	Param int32       // parameter number from 1 when a parameter, else 0
	Name  string      // variable name when IsVar
	Value types.Value // constant value when !IsVar and Arith is nil
	Arith *Arith      // when set, the term is Arith's sum or difference
}

// Arith is L + R, or L - R when Sub. Either side NULL makes it NULL; other
// mismatched kinds are an evaluation error (types.Value.Add and Sub).
type Arith struct {
	Sub  bool
	L, R Term
}

// V returns a variable term.
func V(name string) Term { return Term{IsVar: true, Name: name} }

// C returns a constant term.
func C(v types.Value) Term { return Term{Value: v} }

// P returns the term for parameter i, counted from 0: params[i] of each
// GroundPlan.
func P(i int) Term { return Term{Param: int32(i + 1)} }

// CStr, CInt are constant-term shorthands.
func CStr(s string) Term { return C(types.Str(s)) }
func CInt(i int64) Term  { return C(types.Int(i)) }

// IsConst reports whether the term is a constant (not a parameter).
func (t Term) IsConst() bool { return !t.IsVar && t.Arith == nil && t.Param == 0 }

// eachVar calls f with every variable the term mentions.
func (t Term) eachVar(f func(string)) {
	switch {
	case t.IsVar:
		f(t.Name)
	case t.Arith != nil:
		t.Arith.L.eachVar(f)
		t.Arith.R.eachVar(f)
	}
}

// equal reports whether t and u are the same term.
func (t Term) equal(u Term) bool {
	if t.IsVar != u.IsVar || t.Param != u.Param || t.Name != u.Name || t.Value != u.Value || (t.Arith == nil) != (u.Arith == nil) {
		return false
	}
	return t.Arith == nil || t.Arith.Sub == u.Arith.Sub && t.Arith.L.equal(u.Arith.L) && t.Arith.R.equal(u.Arith.R)
}

// String renders the term.
func (t Term) String() string {
	switch {
	case t.IsVar:
		return "?" + t.Name
	case t.Param > 0:
		return fmt.Sprintf("$%d", t.Param)
	case t.Arith != nil:
		op := '+'
		if t.Arith.Sub {
			op = '-'
		}
		return fmt.Sprintf("(%s %c %s)", t.Arith.L, op, t.Arith.R)
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

func (a Atom) equal(b Atom) bool {
	return a.Rel == b.Rel && slices.EqualFunc(a.Args, b.Args, Term.equal)
}

// String renders the atom.
func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return fmt.Sprintf("%s(%s)", a.Rel, strings.Join(parts, ", "))
}

// GroundAtom is an atom with all arguments constant.
type GroundAtom struct {
	Rel  string
	Args types.Tuple
}

// hash folds the atom into a 64-bit hash consistent with equal.
func (g GroundAtom) hash() uint64 {
	return g.Args.Hash() ^ maphash.String(relSeed, g.Rel)
}

// relSeed keys relation-name hashing; hashes are per process.
var relSeed = maphash.MakeSeed()

// equal reports whether two ground atoms are the same atom: same relation,
// Equal arguments.
func (g GroundAtom) equal(o GroundAtom) bool {
	return g.Rel == o.Rel && g.Args.Equal(o.Args)
}

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

// Constraint is a comparison between two terms in the body, or a
// disjunction of conjunctions of constraints.
type Constraint struct {
	Left  Term
	Op    CmpOp
	Right Term
	// Or, when set, makes the constraint hold when every constraint of
	// some Or[i] holds; Left, Op and Right are then unused.
	Or [][]Constraint
}

// eachVar calls f with every variable the constraint mentions.
func (c Constraint) eachVar(f func(string)) {
	c.Left.eachVar(f)
	c.Right.eachVar(f)
	for _, conj := range c.Or {
		for _, d := range conj {
			d.eachVar(f)
		}
	}
}

func (c Constraint) equal(d Constraint) bool {
	return c.Op == d.Op && c.Left.equal(d.Left) && c.Right.equal(d.Right) &&
		slices.EqualFunc(c.Or, d.Or, func(x, y []Constraint) bool { return slices.EqualFunc(x, y, Constraint.equal) })
}

// String renders the constraint.
func (c Constraint) String() string {
	if c.Or == nil {
		return fmt.Sprintf("%s %s %s", c.Left, c.Op, c.Right)
	}
	return fmt.Sprint("OR", c.Or) // OR[[a b] [c]]: (a ∧ b) ∨ c
}

// holds applies the operator to two bound values. SQL three-valued logic:
// a comparison involving NULL is false.
func (o CmpOp) holds(l, r types.Value) (bool, error) {
	if l.IsNull() || r.IsNull() {
		return false, nil
	}
	cmp := l.Compare(r)
	switch o {
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
		return false, fmt.Errorf("eq: unknown operator %v", o)
	}
}
