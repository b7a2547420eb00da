package sql

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/eq"
	"repro/internal/types"
)

// CompileEntangled translates an entangled SELECT into the paper's
// intermediate representation (Appendix A): the SELECT-INTO-ANSWER list
// becomes the head, "(exprs) IN ANSWER R" clauses become postconditions,
// and "(cols) IN (SELECT ...)" clauses contribute body atoms and
// constraints. Host variables are resolved against the session at compile
// time — the statement is compiled when it executes, after earlier
// statements have bound them.
//
// The returned map sends each AS @var binding to the eq variable whose
// answer value it should receive.
func (s *Session) CompileEntangled(st *EntangledSelectStmt) (*eq.Query, map[string]string, error) {
	if len(st.Answers) == 0 {
		return nil, nil, fmt.Errorf("sql: entangled SELECT needs INTO ANSWER")
	}
	if st.Choose != 1 {
		return nil, nil, fmt.Errorf("sql: only CHOOSE 1 is supported (got %d)", st.Choose)
	}
	c := &eqCompiler{session: s, outerVars: make(map[string]string)}

	clauses := flattenAnd(st.Where)
	// Pass 1: subqueries establish variable bindings.
	for _, cl := range clauses {
		if sub, ok := cl.(*InSubquery); ok {
			if err := c.in(sub, nil); err != nil {
				return nil, nil, err
			}
		}
	}
	return c.entangled(st, clauses)
}

// entangled compiles the rest of an entangled SELECT once its subqueries
// have bound the outer columns. It is split from CompileEntangled to keep
// the stack small while subqueries compile: every attempt grows it anew.
func (c *eqCompiler) entangled(st *EntangledSelectStmt, clauses []Expr) (*eq.Query, map[string]string, error) {
	// Pass 2: postconditions and loose comparisons over the bound columns.
	for _, cl := range clauses {
		switch t := cl.(type) {
		case *InSubquery:
			// handled
		case *InAnswer:
			atom := eq.Atom{Rel: t.Answer, Args: make([]eq.Term, len(t.Exprs))}
			for i, e := range t.Exprs {
				var err error
				if atom.Args[i], _, err = c.term(e, nil); err != nil {
					return nil, nil, err
				}
			}
			c.post = append(c.post, atom)
		default:
			if err := c.predicate(t, nil); err != nil {
				return nil, nil, err
			}
		}
	}

	// Head: the select list into each ANSWER relation.
	binds := make(map[string]string)
	headArgs := make([]eq.Term, 0, len(st.Items))
	var bindVars []string
	for _, item := range st.Items {
		if item.Star {
			return nil, nil, fmt.Errorf("sql: SELECT * not allowed in entangled queries")
		}
		term, _, err := c.term(item.Expr, nil)
		if err != nil {
			return nil, nil, err
		}
		headArgs = append(headArgs, term)
		if item.BindVar != "" {
			if !term.IsVar {
				return nil, nil, fmt.Errorf("sql: AS @%s must bind a column, not a constant", item.BindVar)
			}
			binds[item.BindVar] = term.Name
			bindVars = append(bindVars, term.Name)
		}
	}
	for _, rel := range st.Answers {
		c.head = append(c.head, eq.Atom{Rel: rel, Args: headArgs})
	}
	q := &eq.Query{Head: c.head, Post: c.post, Body: c.body, Where: c.where, Bind: bindVars, Choose: 1}
	if err := q.Validate(); err != nil {
		return nil, nil, err
	}
	return q, binds, nil
}

// eqCompiler accumulates the pieces of an eq.Query. Column references
// resolve once, against a scope of FROM tables (classical statements and
// subqueries) or against the outer columns IN clauses bound (an entangled
// SELECT's own WHERE and select list, a nil scope).
type eqCompiler struct {
	session   *Session
	outerVars map[string]string // entangled outer column name (lower) -> eq var
	body      []eq.Atom
	head      []eq.Atom
	post      []eq.Atom
	where     []eq.Constraint
	scopes    []scopeTable // backs every block's scope
	counter   int
	rowIDs    bool // body atoms end in the row id txReader appends
}

// scope is the columns one SELECT block's FROM list brings into scope.
type scope []scopeTable

// scopeTable is one FROM entry and its body atom's arguments: a variable
// per column, then, in a classical statement, one for the row id.
type scopeTable struct {
	ref    TableRef
	schema *types.Schema
	args   []eq.Term
}

func flattenAnd(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		return append(flattenAnd(b.L), flattenAnd(b.R)...)
	}
	if e == nil {
		return nil
	}
	return []Expr{e}
}

// from adds one body atom per FROM entry, a fresh variable per column and,
// in a classical statement, one for the row id.
func (c *eqCompiler) from(refs []TableRef) (scope, error) {
	if c.session.cat == nil {
		return nil, fmt.Errorf("sql: no catalog to resolve %s", refs[0].Name)
	}
	start := len(c.scopes)
	for _, ref := range refs {
		tbl, err := c.session.cat.Get(ref.Name)
		if err != nil {
			return nil, err
		}
		schema := tbl.Schema()
		n := schema.Arity()
		if c.rowIDs {
			n++
		}
		args := make([]eq.Term, n)
		for j := range args {
			c.counter++
			args[j] = eq.V(strconv.Itoa(c.counter)) // allocates nothing below 100
		}
		c.scopes = append(c.scopes, scopeTable{ref: ref, schema: schema, args: args})
		c.body = append(c.body, eq.Atom{Rel: tbl.Name(), Args: args})
	}
	return c.scopes[start:len(c.scopes):len(c.scopes)], nil
}

// resolve finds a column's variable and type: a qualified column in the
// FROM entry its alias (or table name) names, an unqualified one in the
// first entry that has it.
func (sc scope) resolve(col *Col) (eq.Term, types.Kind, error) {
	for _, t := range sc {
		if col.Table != "" && !strings.EqualFold(cmp.Or(t.ref.Alias, t.ref.Name), col.Table) {
			continue
		}
		if j := t.schema.Index(col.Name); j >= 0 {
			return t.args[j], t.schema.Columns[j].Type, nil
		}
		if col.Table != "" {
			return eq.Term{}, 0, fmt.Errorf("sql: no column %s in %s", col.Name, t.ref.Name)
		}
	}
	if col.Table != "" {
		return eq.Term{}, 0, fmt.Errorf("sql: unknown table %s", col.Table)
	}
	return eq.Term{}, 0, fmt.Errorf("sql: unknown column %s", col.Name)
}

// block compiles one SELECT block's FROM list and WHERE clause: body atoms
// for the tables, and per conjunct a semi-join (IN (SELECT ...) adds the
// subquery's atoms) or a check, which eq pushes down to the first join
// level that binds its columns. An equality between columns is a join: eq
// probes the later level with the earlier one's value.
func (c *eqCompiler) block(from []TableRef, where Expr) (scope, error) {
	sc, err := c.from(from)
	if err != nil {
		return nil, err
	}
	for _, cl := range flattenAnd(where) {
		if in, ok := cl.(*InSubquery); ok {
			if err := c.in(in, sc); err != nil {
				return nil, err
			}
			continue
		}
		if err := c.predicate(cl, sc); err != nil {
			return nil, err
		}
	}
	return sc, nil
}

// in compiles "(exprs) IN (SELECT items FROM ... WHERE ...)": the
// subquery's atoms join the body and each item equals its outer
// expression, so a row matching several subquery rows still yields one
// grounding per outer row (the head never mentions subquery variables),
// and a NULL matches nothing.
// In an entangled SELECT (outer nil), a first mention of an outer column
// binds it to the item's variable.
func (c *eqCompiler) in(in *InSubquery, outer scope) error {
	sub := in.Sub
	if len(sub.From) == 0 {
		return fmt.Errorf("sql: IN subquery needs a FROM clause")
	}
	if sub.Limit != 0 {
		return fmt.Errorf("sql: LIMIT not supported in IN subqueries")
	}
	inner, err := c.block(sub.From, sub.Where)
	if err != nil {
		return err
	}
	return c.equate(in, inner, outer)
}

// equate equates an IN clause's outer expressions with its subquery's
// select list, compiled in inner, once block has returned (see entangled).
func (c *eqCompiler) equate(in *InSubquery, inner, outer scope) error {
	sub := in.Sub
	if len(in.Exprs) != len(sub.Items) {
		return fmt.Errorf("sql: IN arity mismatch: %d outer vs %d selected", len(in.Exprs), len(sub.Items))
	}
	for i, item := range sub.Items {
		if item.Star {
			return fmt.Errorf("sql: SELECT * not allowed in IN subqueries")
		}
		it, ik, err := c.term(item.Expr, inner)
		if err != nil {
			return err
		}
		if col, ok := in.Exprs[i].(*Col); ok && outer == nil {
			key := strings.ToLower(col.Name)
			if _, bound := c.outerVars[key]; !bound {
				if !it.IsVar {
					return fmt.Errorf("sql: entangled subquery select list must be columns")
				}
				c.outerVars[key] = it.Name
				continue
			}
		}
		ot, ok, err := c.term(in.Exprs[i], outer)
		if err != nil {
			return err
		}
		ot, it = coerceTerms(ot, ok, it, ik)
		c.where = append(c.where, eq.Constraint{Left: ot, Op: eq.OpEq, Right: it})
	}
	return nil
}

// predicate compiles a WHERE conjunct other than a semi-join — a
// comparison, a disjunction, or a boolean literal — to a check on c.where.
func (c *eqCompiler) predicate(e Expr, sc scope) error {
	switch ex := e.(type) {
	case *Lit:
		c.where = append(c.where, eq.Constraint{Left: eq.C(ex.Val), Op: eq.OpEq, Right: eq.C(types.Bool(true))})
	case *Binary:
		if ex.Op == "OR" {
			return c.disjunction(ex, sc)
		}
		op, err := cmpOp(ex.Op)
		if err != nil {
			return err
		}
		l, lk, err := c.term(ex.L, sc)
		if err != nil {
			return err
		}
		r, rk, err := c.term(ex.R, sc)
		if err != nil {
			return err
		}
		l, r = coerceTerms(l, lk, r, rk)
		c.where = append(c.where, eq.Constraint{Left: l, Op: op, Right: r})
	case *InSubquery:
		return fmt.Errorf("sql: IN (SELECT ...) is supported only as a top-level AND conjunct")
	case *InAnswer:
		return fmt.Errorf("sql: IN ANSWER is only meaningful inside an entangled SELECT")
	default:
		return fmt.Errorf("sql: expression %T is not a predicate", e)
	}
	return nil
}

// disjunction compiles L OR R: each side's conjuncts, compiled onto
// c.where, move into one disjunctive check.
func (c *eqCompiler) disjunction(ex *Binary, sc scope) error {
	or := make([][]eq.Constraint, 2)
	for i, d := range [2]Expr{ex.L, ex.R} {
		start := len(c.where)
		for _, cl := range flattenAnd(d) {
			if err := c.predicate(cl, sc); err != nil {
				return err
			}
		}
		or[i] = slices.Clone(c.where[start:])
		c.where = c.where[:start]
	}
	c.where = append(c.where, eq.Constraint{Or: or})
	return nil
}

// term compiles a scalar expression and reports its type where known:
// columns become variables, literals and host variables constants, and
// + / - over constants folds while over a column it stays arithmetic. A
// nil scope resolves columns against the outer columns IN clauses bound,
// if any.
func (c *eqCompiler) term(e Expr, sc scope) (eq.Term, types.Kind, error) {
	switch t := e.(type) {
	case *Lit:
		return eq.C(t.Val), t.Val.Kind(), nil
	case *Var:
		v, ok := c.session.Vars[strings.ToLower(t.Name)]
		if !ok {
			return eq.Term{}, 0, fmt.Errorf("sql: unbound variable @%s", t.Name)
		}
		return eq.C(v), v.Kind(), nil
	case *Col:
		if sc != nil {
			return sc.resolve(t)
		}
		if v, ok := c.outerVars[strings.ToLower(t.Name)]; ok {
			return eq.V(v), types.KindNull, nil
		}
		return eq.Term{}, 0, fmt.Errorf("sql: column %s is not in scope (an entangled SELECT's columns come from IN (SELECT ...))", t.Name)
	case *Binary:
		if t.Op != "+" && t.Op != "-" {
			return eq.Term{}, 0, fmt.Errorf("sql: unsupported operator %s in a value", t.Op)
		}
		l, lk, err := c.term(t.L, sc)
		if err != nil {
			return eq.Term{}, 0, err
		}
		r, rk, err := c.term(t.R, sc)
		if err != nil {
			return eq.Term{}, 0, err
		}
		// A string operand that parses as a date is one: '2011-05-06' - fdate.
		l, lk = dateOperand(l, lk)
		r, rk = dateOperand(r, rk)
		if l.IsConst() && r.IsConst() {
			v, err := types.Null(), error(nil)
			switch {
			case l.Value.IsNull() || r.Value.IsNull(): // NULL, as eq's arithmetic gives
			case t.Op == "+":
				v, err = l.Value.Add(r.Value)
			default:
				v, err = l.Value.Sub(r.Value)
			}
			return eq.C(v), v.Kind(), err
		}
		kind := lk // date + int is a date, date - date an int
		switch {
		case t.Op == "-":
			kind = types.KindInt
		case rk == types.KindDate:
			kind = rk
		}
		return eq.Term{Arith: &eq.Arith{Sub: t.Op == "-", L: l, R: r}}, kind, nil
	default:
		return eq.Term{}, 0, fmt.Errorf("sql: unsupported expression %T in a value", e)
	}
}

// dateOperand turns a constant string that parses as a date into the date.
func dateOperand(t eq.Term, kind types.Kind) (eq.Term, types.Kind) {
	if d := coerce(t.Value, types.KindDate); t.IsConst() && d.Kind() == types.KindDate {
		return eq.C(d), types.KindDate
	}
	return t, kind
}

// coerceTerms converts a constant string compared with a DATE operand to a
// date, as SQL compares a date column with a date literal.
func coerceTerms(l eq.Term, lk types.Kind, r eq.Term, rk types.Kind) (eq.Term, eq.Term) {
	if lk == types.KindDate {
		r, _ = dateOperand(r, rk)
	}
	if rk == types.KindDate {
		l, _ = dateOperand(l, lk)
	}
	return l, r
}

func cmpOp(op string) (eq.CmpOp, error) {
	for o := eq.OpEq; o <= eq.OpGe; o++ {
		if o.String() == op {
			return o, nil
		}
	}
	return 0, fmt.Errorf("sql: %s is not a comparison operator", op)
}

// selectStmt compiles a classical SELECT. The head is each FROM row's id,
// then the select list: groundings, which eq deduplicates by head, are
// then exactly the matching row combinations — duplicates kept, and one
// per outer row however many subquery rows an IN clause matches. It
// returns the result's column names.
func (c *eqCompiler) selectStmt(st *SelectStmt) ([]string, error) {
	sc, err := c.block(st.From, st.Where)
	if err != nil {
		return nil, err
	}
	args := make([]eq.Term, len(sc), len(sc)+len(st.Items))
	for i, t := range sc {
		args[i] = t.args[len(t.args)-1]
	}
	cols := make([]string, 0, len(st.Items))
	for _, item := range st.Items {
		if item.Star {
			for _, t := range sc {
				for j, col := range t.schema.Columns {
					cols = append(cols, col.Name)
					args = append(args, t.args[j])
				}
			}
			continue
		}
		term, _, err := c.term(item.Expr, sc)
		if err != nil {
			return nil, err
		}
		args = append(args, term)
		cols = append(cols, itemName(item))
	}
	c.head = append(c.head, eq.Atom{Rel: "Result", Args: args})
	return cols, nil
}

// --- script-to-program compilation --------------------------------------

// BuildProgram compiles a SQL script into a core.Program. Scripts wrapped
// in BEGIN TRANSACTION [WITH TIMEOUT d] ... COMMIT become entangled
// transactions (§3.1 syntax); bare scripts become autocommit (-Q) programs.
// A ROLLBACK statement anywhere aborts the transaction permanently.
func BuildProgram(cat Catalog, script string) (core.Program, error) {
	stmts, err := Parse(script)
	if err != nil {
		return core.Program{}, err
	}
	if len(stmts) == 0 {
		return core.Program{}, fmt.Errorf("sql: empty script")
	}
	prog := core.Program{Name: "sql-script"}
	body := stmts
	if b, ok := stmts[0].(*BeginStmt); ok {
		prog.Timeout = b.Timeout
		last := stmts[len(stmts)-1]
		if _, ok := last.(*CommitStmt); !ok {
			if _, ok := last.(*RollbackStmt); !ok {
				return core.Program{}, fmt.Errorf("sql: transaction script must end with COMMIT or ROLLBACK")
			}
		}
		body = stmts[1:]
	} else {
		prog.Autocommit = true
	}
	for _, st := range body[:max(0, len(body)-1)] {
		if _, ok := st.(*BeginStmt); ok {
			return core.Program{}, fmt.Errorf("sql: nested BEGIN TRANSACTION")
		}
	}
	prog.Body = func(tx *core.Tx) error {
		session := NewSession()
		for _, st := range body {
			switch st.(type) {
			case *CommitStmt:
				return nil
			case *RollbackStmt:
				tx.Rollback()
				return nil
			case *BeginStmt:
				return fmt.Errorf("sql: nested BEGIN TRANSACTION")
			case *CreateTableStmt, *CreateIndexStmt:
				return fmt.Errorf("sql: DDL inside a transaction script is not supported")
			}
			if _, err := session.Exec(tx, cat, st); err != nil {
				return err
			}
		}
		return nil
	}
	return prog, nil
}
