package eq

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/types"
)

// Query is an entangled query in the intermediate representation {C} H ⇐ B.
//
// The SQL form
//
//	SELECT 'Mickey', fno, fdate INTO ANSWER Reservation
//	WHERE fno, fdate IN (SELECT fno, fdate FROM Flights WHERE dest='LA')
//	  AND ('Minnie', fno, fdate) IN ANSWER Reservation
//	CHOOSE 1
//
// compiles to
//
//	Head: Reservation(Mickey, ?fno, ?fdate)
//	Post: Reservation(Minnie, ?fno, ?fdate)
//	Body: Flights(?fno, ?fdate, ?dest)   Where: ?dest = 'LA'
type Query struct {
	// Head is the query's own contribution to the ANSWER relation(s).
	Head []Atom
	// Post is the postcondition: atoms that must be present in the ANSWER
	// relation(s) — contributed by entanglement partners.
	Post []Atom
	// Body is the database part of the WHERE clause (select-project-join).
	Body []Atom
	// Where holds comparison constraints over body variables.
	Where []Constraint
	// Bind names the variables whose values the transaction wants back as
	// host variables (the AS @var syntax). May be empty. When set, the
	// program reads no other variable from Answer.Bindings (ReadCols).
	Bind []string
	// Choose limits the number of groundings selected for this query; the
	// paper fixes it to 1 and so do we (0 is treated as 1).
	Choose int
}

// Validate checks the query's static well-formedness: non-empty head and
// body, range restriction (every variable in Head, Post, or Bind appears in
// the Body), and positive Choose.
func (q *Query) Validate() error {
	if len(q.Head) == 0 {
		return fmt.Errorf("eq: query has no head atoms")
	}
	if len(q.Body) == 0 {
		return fmt.Errorf("eq: query has no body atoms")
	}
	if q.Choose < 0 || q.Choose > 1 {
		return fmt.Errorf("eq: CHOOSE %d unsupported (only CHOOSE 1)", q.Choose)
	}
	var buf [16]string
	body := buf[:0] // the body's variables; queries are small, so a scan beats a map
	for _, a := range q.Body {
		for _, t := range a.Args {
			switch {
			case t.Arith != nil:
				return fmt.Errorf("eq: body atom %s has an arithmetic argument", a)
			case t.IsVar && !slices.Contains(body, t.Name):
				body = append(body, t.Name)
			}
		}
	}
	missing := ""
	find := func(v string) {
		if missing == "" && !slices.Contains(body, v) {
			missing = v
		}
	}
	for i, atoms := range [2][]Atom{q.Head, q.Post} {
		for _, a := range atoms {
			for _, t := range a.Args {
				t.eachVar(find)
			}
		}
		if missing != "" {
			return fmt.Errorf("eq: range restriction violated: variable %s in %s does not appear in the body", missing, [2]string{"head", "postcondition"}[i])
		}
	}
	for _, b := range q.Bind {
		if !slices.Contains(body, b) {
			return fmt.Errorf("eq: bind variable @%s does not appear in the body", b)
		}
	}
	return nil
}

// BodyTables returns the distinct database relations the body grounds on,
// in first-mention order. These are the grounding-read targets — the tables
// the transaction (and, via quasi-reads, its entanglement partners) must
// see a stable view of.
func (q *Query) BodyTables() []string {
	var out []string
	for _, a := range q.Body {
		if !slices.Contains(out, a.Rel) {
			out = append(out, a.Rel)
		}
	}
	return out
}

// ReadCols returns the positions of body atom a whose values the query's
// answer depends on: a constant, or a variable that occurs anywhere else in
// Head, Post, Body, Where or Bind (a second position of a itself included).
// A variable occurring once is a fresh column variable the SQL compiler
// made, read by nothing. Without Bind, though, the program may read any
// variable from Answer.Bindings, so every position counts as read. Nil
// means a reads no position — it still reads which rows exist, and nil
// stands for the whole table.
func (q *Query) ReadCols(a Atom) []int {
	var cols []int
	for i, t := range a.Args {
		if !t.IsVar || len(q.Bind) == 0 || q.occurrences(t.Name) > 1 {
			cols = append(cols, i)
		}
	}
	return cols
}

// occurrences counts the places variable v appears in the query.
func (q *Query) occurrences(v string) int {
	n := 0
	count := func(name string) {
		if name == v {
			n++
		}
	}
	for _, as := range [...][]Atom{q.Head, q.Post, q.Body} {
		for _, b := range as {
			for _, t := range b.Args {
				t.eachVar(count)
			}
		}
	}
	for _, c := range q.Where {
		c.eachVar(count)
	}
	for _, b := range q.Bind {
		if b == v {
			n++
		}
	}
	return n
}

// AnswerRelations returns the distinct ANSWER relations mentioned by head
// and postcondition, in first-mention order.
func (q *Query) AnswerRelations() []string {
	seen := make(map[string]bool)
	var out []string
	for _, a := range append(append([]Atom{}, q.Head...), q.Post...) {
		if !seen[a.Rel] {
			seen[a.Rel] = true
			out = append(out, a.Rel)
		}
	}
	return out
}

// Equal reports whether q and o are the same query term by term: the same
// atoms and constraints in the same order, bound variables and choice.
// Constants are equal when kind and value are. It allocates nothing.
func (q *Query) Equal(o *Query) bool {
	if q == o {
		return true
	}
	atoms := func(a, b []Atom) bool { return slices.EqualFunc(a, b, Atom.equal) }
	return q != nil && o != nil && q.Choose == o.Choose && slices.Equal(q.Bind, o.Bind) &&
		atoms(q.Head, o.Head) && atoms(q.Post, o.Post) && atoms(q.Body, o.Body) &&
		slices.EqualFunc(q.Where, o.Where, Constraint.equal)
}

// String renders the query in the paper's {C} H ⇐ B notation.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("{")
	for i, a := range q.Post {
		if i > 0 {
			b.WriteString(" ∧ ")
		}
		b.WriteString(a.String())
	}
	b.WriteString("} ")
	for i, a := range q.Head {
		if i > 0 {
			b.WriteString(" ∧ ")
		}
		b.WriteString(a.String())
	}
	b.WriteString(" ⇐ ")
	for i, a := range q.Body {
		if i > 0 {
			b.WriteString(" ∧ ")
		}
		b.WriteString(a.String())
	}
	for _, c := range q.Where {
		b.WriteString(" ∧ ")
		b.WriteString(c.String())
	}
	return b.String()
}

// Grounding is one valuation of a query's body: the instantiated head and
// postcondition atoms, and the value of every body variable — Vals[k] is
// variable Vars[k], and every grounding of one query shares its Vars. The
// head arguments, the postcondition arguments and Vals share one backing
// array.
type Grounding struct {
	Head []GroundAtom
	Post []GroundAtom
	Vals []types.Value
	Vars []string
}

// Bindings maps every body variable to its value in this grounding — the
// host-variable bindings of an answer.
func (g *Grounding) Bindings() map[string]types.Value {
	out := make(map[string]types.Value, len(g.Vars))
	for k, name := range g.Vars {
		out[name] = g.Vals[k]
	}
	return out
}
