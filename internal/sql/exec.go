package sql

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/eq"
	"repro/internal/storage"
	"repro/internal/types"
)

// DataTx is the data access surface the executor runs against. core.Tx
// satisfies it, so compiled programs run under the entangled transaction
// engine; txn.Txn satisfies the read/write subset for classical use. A
// classical statement reads through ScanIDs and LookupIDs only (see
// txReader), and owns the slices they return.
type DataTx interface {
	ScanIDs(table string) ([]storage.RowID, []types.Tuple, error)
	LookupIDs(table string, columns []string, key types.Tuple) ([]storage.RowID, []types.Tuple, error)
	Insert(table string, row types.Tuple) (storage.RowID, error)
	Update(table string, id storage.RowID, row types.Tuple) error
	Delete(table string, id storage.RowID) error
	Entangle(q *eq.Query) *eq.Answer
}

// Catalog is the schema lookup the executor needs (satisfied by
// *storage.Catalog).
type Catalog interface {
	Get(name string) (*storage.Table, error)
}

// Session holds host variables (@var) across statements of a script.
type Session struct {
	Vars map[string]types.Value
	cat  Catalog // remembered from Exec for subquery schema resolution
}

// NewSession returns an empty session.
func NewSession() *Session { return &Session{Vars: make(map[string]types.Value)} }

// Result is the outcome of executing one statement.
type Result struct {
	Columns      []string
	Rows         []types.Tuple
	RowsAffected int
	Answer       *eq.Answer // set for entangled SELECTs
}

// Exec executes one statement. DDL statements (CREATE ...) are rejected
// here — they are session-independent and handled by the database wrapper.
// A classical statement compiles for this execution alone; Run executes
// one whose shape a Cache keeps compiled.
func (s *Session) Exec(tx DataTx, cat Catalog, stmt Stmt) (*Result, error) {
	if cat != nil {
		s.cat = cat
	}
	switch st := stmt.(type) {
	case *InsertStmt, *SelectStmt, *UpdateStmt, *DeleteStmt:
		g := s.grounder(tx)
		defer g.release()
		if err := g.compile(&g.cs, stmt, nil, false); err != nil {
			return nil, err
		}
		return g.run(&g.cs, nil)
	case *EntangledSelectStmt:
		return s.execEntangled(tx, st)
	case *SetStmt:
		v, err := s.constant(st.Expr, nil)
		if err != nil {
			return nil, err
		}
		s.Vars[strings.ToLower(st.Name)] = v
		return &Result{}, nil
	default:
		return nil, fmt.Errorf("sql: statement %T not executable here", stmt)
	}
}

// coerce converts v toward the column kind where SQL would (string
// literals into DATE columns).
func coerce(v types.Value, want types.Kind) types.Value {
	if want == types.KindDate && v.Kind() == types.KindString {
		if d, err := types.DateFromString(v.Str64()); err == nil {
			return d
		}
	}
	return v
}

// constant evaluates a row-independent expression — a literal, a host
// variable, or + / - over them — folded as the compiler folds constants,
// lits the values of its literal parameters.
func (s *Session) constant(e Expr, lits []types.Value) (types.Value, error) {
	t, _, err := (&eqCompiler{session: s, lits: lits}).term(e, nil)
	return t.Value, err
}

// stored gives a value bound for a table row its own copy of a string
// payload. A string literal shares its script's memory (the lexer slices it
// out of the source), and a stored row must not keep the whole script
// alive for as long as the row lives.
func stored(v types.Value) types.Value {
	if v.Kind() == types.KindString {
		return types.Str(strings.Clone(v.Str64()))
	}
	return v
}

// compiled is a classical statement compiled against the catalog: the
// parsed statement, its eq query and join plan, or an INSERT's row, with
// parameters (eq.P) where its shape's literals and session variables are.
// A Cache's compiled statements are immutable, so any number of
// executions share one.
type compiled struct {
	stmt   Stmt
	key    string  // the shape key (Cache)
	epoch  uint64  // the catalog epoch compiled at (Cache)
	params []param // how an execution computes each parameter
	q      eq.Query
	plan   eq.Plan
	cols   []string  // a SELECT's result columns
	nfrom  int       // a SELECT's FROM entries: its head starts with their row ids
	table  string    // the table an INSERT, UPDATE or DELETE writes
	row    []eq.Term // an INSERT's row, or a FROM-less SELECT's items
}

// param says how an execution computes one parameter of a compiled
// statement: src, a literal, a session variable or a sum over them,
// evaluated; read as a date if date and it parses as one; then, if store,
// coerced to the column kind col and copied for a row. Its kind before the
// store must be kind, which the compilation assumed, or the statement
// compiles again.
type param struct {
	src   Expr
	kind  types.Kind
	date  bool
	store bool
	col   types.Kind
}

// compile compiles a classical statement into cs, reusing cs's memory:
// if shape, the shape cs is keyed by (Cache), its literal parameters'
// values lits; else the statement as parsed, every constant in place.
func (g *grounder) compile(cs *compiled, stmt Stmt, lits []types.Value, shape bool) error {
	c := &g.c
	*c = eqCompiler{session: c.session, rowIDs: true, scopes: c.scopes[:0], vals: c.vals[:0],
		body: cs.q.Body[:0], head: cs.q.Head[:0], where: cs.q.Where[:0],
		lits: lits, shape: shape, params: cs.params[:0]}
	cs.stmt, cs.nfrom, cs.row = stmt, 0, cs.row[:0]
	switch st := stmt.(type) {
	case *InsertStmt:
		if err := c.insert(cs, st); err != nil {
			return err
		}
	case *SelectStmt:
		if len(st.From) == 0 {
			// Expression-only SELECT (e.g. SELECT @x).
			cs.cols = nil
			for _, item := range st.Items {
				t, _, err := c.term(item.Expr, nil)
				if err != nil {
					return err
				}
				cs.row = append(cs.row, t)
				cs.cols = append(cs.cols, itemName(item))
			}
			break
		}
		cols, err := c.selectStmt(st)
		if err != nil {
			return err
		}
		cs.cols, cs.nfrom = cols, len(st.From)
	case *UpdateStmt:
		if err := c.write(cs, st.Table, st.Where, st.Set, true); err != nil {
			return err
		}
	case *DeleteStmt:
		if err := c.write(cs, st.Table, st.Where, nil, false); err != nil {
			return err
		}
	}
	cs.params = c.params
	if len(c.body) == 0 {
		return nil
	}
	cs.q = eq.Query{Head: c.head, Body: c.body, Where: c.where}
	return cs.plan.Build(&cs.q, &g.r)
}

// insert compiles an INSERT: the table's row, each position a constant or
// a parameter bound for the column.
func (c *eqCompiler) insert(cs *compiled, st *InsertStmt) error {
	tbl, err := c.session.cat.Get(st.Table)
	if err != nil {
		return err
	}
	schema := tbl.Schema()
	cs.table = st.Table
	cs.row = slices.Grow(cs.row, schema.Arity())[:schema.Arity()]
	value := func(j int, e Expr) error {
		t, _, err := c.term(e, nil)
		if err != nil {
			return err
		}
		cs.row[j] = c.stored(t, schema.Columns[j].Type)
		return nil
	}
	if len(st.Columns) == 0 {
		if len(st.Values) != schema.Arity() {
			return fmt.Errorf("sql: INSERT arity %d, table %s has %d columns", len(st.Values), st.Table, schema.Arity())
		}
		for i, e := range st.Values {
			if err := value(i, e); err != nil {
				return err
			}
		}
		return nil
	}
	if len(st.Columns) != len(st.Values) {
		return fmt.Errorf("sql: INSERT has %d columns but %d values", len(st.Columns), len(st.Values))
	}
	for i := range cs.row {
		cs.row[i] = eq.C(types.Null())
	}
	for i, col := range st.Columns {
		j := schema.Index(col)
		if j < 0 {
			return fmt.Errorf("sql: no column %s in %s", col, st.Table)
		}
		if err := value(j, st.Values[i]); err != nil {
			return err
		}
	}
	return nil
}

// stored is a constant or parameter term bound for a column of kind col:
// its value coerced to the column and copied for the row (see stored).
func (c *eqCompiler) stored(t eq.Term, col types.Kind) eq.Term {
	switch {
	case t.Param > 0:
		c.params[t.Param-1].store, c.params[t.Param-1].col = true, col
	case t.IsConst():
		t = eq.C(stored(coerce(t.Value, col)))
	}
	return t
}

// write compiles an UPDATE or a DELETE: a grounding per row of table that
// where selects, its head the row id then, for an UPDATE, the row as SET
// leaves it.
func (c *eqCompiler) write(cs *compiled, table string, where Expr, set []Assign, update bool) error {
	sc, err := c.block([]TableRef{{Name: table}}, where)
	if err != nil {
		return err
	}
	cs.table = table
	t, arity := sc[0], len(sc[0].args)-1
	args := []eq.Term{t.args[arity]}
	if update {
		args = append(args, t.args[:arity]...)
	}
	for _, a := range set {
		j := t.schema.Index(a.Col)
		if j < 0 {
			return fmt.Errorf("sql: no column %s in %s", a.Col, table)
		}
		term, _, err := c.term(a.Expr, sc)
		if err != nil {
			return err
		}
		args[1+j] = c.stored(term, t.schema.Columns[j].Type)
	}
	c.head = append(c.head, eq.Atom{Rel: table, Args: args})
	return nil
}

// bind computes cs's parameters for an execution with literal values lits
// into g.params. False means a parameter's kind is not the one cs was
// compiled for: the execution needs a compilation of its own.
func (g *grounder) bind(cs *compiled, lits []types.Value) (bool, error) {
	g.params = g.params[:0]
	s := g.c.session
	for i := range cs.params {
		p := &cs.params[i]
		var v types.Value
		switch src := p.src.(type) {
		case *Lit:
			v = lits[src.Param-1]
		case *Var:
			var ok bool
			if v, ok = s.Vars[strings.ToLower(src.Name)]; !ok {
				return false, fmt.Errorf("sql: unbound variable @%s", src.Name)
			}
		default:
			var err error
			if v, err = s.constant(src, lits); err != nil {
				return false, err
			}
		}
		if p.date {
			if d := coerce(v, types.KindDate); d.Kind() == types.KindDate {
				v = d
			}
		}
		if v.Kind() != p.kind {
			return false, nil
		}
		if p.store {
			v = stored(coerce(v, p.col))
		}
		g.params = append(g.params, v)
	}
	return true, nil
}

// values is cs.row's values in an execution with params.
func (cs *compiled) values(params []types.Value) types.Tuple {
	row := make(types.Tuple, len(cs.row))
	for i, t := range cs.row {
		row[i] = t.Value
		if t.Param > 0 {
			row[i] = params[t.Param-1]
		}
	}
	return row
}

// run executes a compiled classical statement with its parameters bound
// to params: an INSERT stores its row; a SELECT, UPDATE or DELETE grounds
// its plan through a txReader, its rows read off the groundings' heads,
// and an UPDATE or DELETE then writes every row it read.
func (g *grounder) run(cs *compiled, params []types.Value) (*Result, error) {
	s, tx := g.c.session, g.r.tx
	switch st := cs.stmt.(type) {
	case *InsertStmt:
		if _, err := tx.Insert(cs.table, cs.values(params)); err != nil {
			return nil, err
		}
		return &Result{RowsAffected: 1}, nil
	case *SelectStmt:
		res := &Result{Columns: cs.cols}
		if cs.nfrom == 0 {
			row := cs.values(params)
			res.Rows = []types.Tuple{row}
			s.applyBindings(st.Items, row)
			return res, nil
		}
		gs, err := g.ev.GroundPlan(&cs.plan, &g.r, params, eq.GroundOptions{MaxGroundings: st.Limit})
		if err != nil {
			return nil, err
		}
		if len(gs) > 0 {
			n := len(cs.cols)
			res.Rows = make([]types.Tuple, len(gs))
			vals := make([]types.Value, len(gs)*n)
			for i, gr := range gs {
				res.Rows[i] = vals[i*n : (i+1)*n : (i+1)*n]
				copy(res.Rows[i], gr.Head[0].Args[cs.nfrom:])
			}
			s.applyBindings(st.Items, res.Rows[0])
		}
		return res, nil
	}
	gs, err := g.ev.GroundPlan(&cs.plan, &g.r, params, eq.GroundOptions{})
	if err != nil {
		return nil, err
	}
	_, update := cs.stmt.(*UpdateStmt)
	for _, gr := range gs {
		row := gr.Head[0].Args
		id := storage.RowID(row[0].Int64())
		if update {
			err = tx.Update(cs.table, id, row[1:].Clone())
		} else {
			err = tx.Delete(cs.table, id)
		}
		if err != nil {
			return nil, err
		}
	}
	return &Result{RowsAffected: len(gs)}, nil
}

// grounder is the memory a classical statement compiles, binds, reads and
// grounds in. A pool recycles it from statement to statement, so the
// statement's groundings live until it is released. cs holds a statement
// compiled for one execution (Exec); a Cache's are their own.
type grounder struct {
	c      eqCompiler
	cs     compiled
	params []types.Value
	ev     eq.Evaluator
	r      txReader
}

var grounders = sync.Pool{New: func() any { return &grounder{r: txReader{scans: make(map[string][]types.Tuple)}} }}

// grounder takes a grounder from the pool for a statement over tx.
func (s *Session) grounder(tx DataTx) *grounder {
	g := grounders.Get().(*grounder)
	g.c.session = s
	g.r.tx, g.r.cat = tx, s.cat
	return g
}

// release returns g to the pool, dropping what it holds of the statement.
func (g *grounder) release() {
	clear(g.r.scans)
	clear(g.c.vals)
	clear(g.params)
	g.c.session, g.c.lits, g.r.tx, g.r.cat = nil, nil, nil, nil
	grounders.Put(g)
}

// applyBindings stores AS @var and bare-@var select items into the session
// from the first result row, supporting both
// "SELECT hometown AS @hometown ..." and the Appendix D shorthand
// "SELECT @uid, @hometown FROM User ...".
func (s *Session) applyBindings(items []SelectItem, row types.Tuple) {
	i := 0
	for _, item := range items {
		if item.Star {
			return // positional binding undefined under *
		}
		if item.BindVar != "" && i < len(row) {
			s.Vars[strings.ToLower(item.BindVar)] = row[i]
		}
		i++
	}
}

func itemName(item SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	if item.BindVar != "" {
		return "@" + item.BindVar
	}
	if c, ok := item.Expr.(*Col); ok {
		return c.Name
	}
	return "expr"
}

// execEntangled compiles the entangled SELECT against the session's
// current variable bindings, poses it, and binds AS @var results.
func (s *Session) execEntangled(tx DataTx, st *EntangledSelectStmt) (*Result, error) {
	q, binds, err := s.CompileEntangled(st)
	if err != nil {
		return nil, err
	}
	a := tx.Entangle(q)
	if a.Status == eq.Errored {
		return nil, a.Err
	}
	if a.Status == eq.Answered {
		for varName, eqVar := range binds {
			if v, ok := a.Bindings[eqVar]; ok {
				s.Vars[strings.ToLower(varName)] = v
			}
		}
	}
	res := &Result{Answer: a}
	for _, ga := range a.Tuples {
		res.Rows = append(res.Rows, ga.Args)
	}
	return res, nil
}

// txReader is the eq.CursorReader a classical statement grounds through.
// Every read goes through the statement's DataTx, so the transaction's
// locks and read set are the ones ScanIDs and LookupIDs take: a level with
// nothing bound scans (table S lock), a bound level whose columns a
// declared index covers probes it (IS plus row S locks), and any other
// bound level scans and filters. Each row carries its RowID as a trailing
// position, which the compiled atoms bind. A table is scanned at most once
// per statement; later levels over it filter that scan.
type txReader struct {
	tx    DataTx
	cat   Catalog
	scans map[string][]types.Tuple // a table's rows, each with its RowID
	names []string                 // a probe's column names
}

// ScanCursor streams every row of table.
func (r *txReader) ScanCursor(table string) (eq.RowCursor, error) {
	return r.ProbeCursor(table, nil, nil)
}

// CanProbe reports whether a declared index on table covers cols.
func (r *txReader) CanProbe(table string, cols []int) bool {
	tbl, err := r.cat.Get(table)
	return err == nil && tbl.HasIndexForCols(cols)
}

// ProbeCursor streams the rows of table whose positions cols equal vals:
// through LookupIDs when a declared index covers cols, else by filtering
// the table's scan.
func (r *txReader) ProbeCursor(table string, cols []int, vals []types.Value) (eq.RowCursor, error) {
	if tbl, err := r.cat.Get(table); err == nil && len(cols) > 0 && tbl.HasIndexForCols(cols) {
		r.names = r.names[:0]
		for _, c := range cols {
			r.names = append(r.names, tbl.Schema().Columns[c].Name)
		}
		ids, rows, err := r.tx.LookupIDs(table, r.names, types.Tuple(vals))
		if err != nil {
			return nil, err
		}
		return eq.SliceCursor(withIDs(ids, rows), nil, nil), nil
	}
	rows, ok := r.scans[table]
	if !ok {
		ids, all, err := r.tx.ScanIDs(table)
		if err != nil {
			return nil, err
		}
		rows = withIDs(ids, all)
		r.scans[table] = rows
	}
	return eq.SliceCursor(rows, cols, vals), nil
}

// withIDs extends each row, in place, by its RowID.
func withIDs(ids []storage.RowID, rows []types.Tuple) []types.Tuple {
	if len(rows) == 0 {
		return rows
	}
	w := len(rows[0]) + 1
	vals := make([]types.Value, 0, len(rows)*w)
	for i, row := range rows {
		vals = append(append(vals, row...), types.Int(int64(ids[i])))
		rows[i] = vals[len(vals)-w : len(vals) : len(vals)]
	}
	return rows
}
