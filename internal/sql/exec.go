package sql

import (
	"fmt"
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
func (s *Session) Exec(tx DataTx, cat Catalog, stmt Stmt) (*Result, error) {
	if cat != nil {
		s.cat = cat
	}
	switch st := stmt.(type) {
	case *InsertStmt:
		return s.execInsert(tx, cat, st)
	case *SelectStmt:
		return s.execSelect(tx, st)
	case *EntangledSelectStmt:
		return s.execEntangled(tx, st)
	case *UpdateStmt:
		return s.execWrite(tx, st.Table, st.Where, st.Set, true)
	case *DeleteStmt:
		return s.execWrite(tx, st.Table, st.Where, nil, false)
	case *SetStmt:
		v, err := s.evalScalar(st.Expr)
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

// evalScalar evaluates a row-independent expression — a literal, a host
// variable, or + / - over them — folded as the compiler folds constants.
func (s *Session) evalScalar(e Expr) (types.Value, error) {
	t, _, err := (&eqCompiler{session: s}).term(e, nil)
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

func (s *Session) execInsert(tx DataTx, cat Catalog, st *InsertStmt) (*Result, error) {
	tbl, err := cat.Get(st.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	row := make(types.Tuple, schema.Arity())
	if len(st.Columns) == 0 {
		if len(st.Values) != schema.Arity() {
			return nil, fmt.Errorf("sql: INSERT arity %d, table %s has %d columns", len(st.Values), st.Table, schema.Arity())
		}
		for i, e := range st.Values {
			v, err := s.evalScalar(e)
			if err != nil {
				return nil, err
			}
			row[i] = stored(coerce(v, schema.Columns[i].Type))
		}
	} else {
		if len(st.Columns) != len(st.Values) {
			return nil, fmt.Errorf("sql: INSERT has %d columns but %d values", len(st.Columns), len(st.Values))
		}
		for i := range row {
			row[i] = types.Null()
		}
		for i, col := range st.Columns {
			j := schema.Index(col)
			if j < 0 {
				return nil, fmt.Errorf("sql: no column %s in %s", col, st.Table)
			}
			v, err := s.evalScalar(st.Values[i])
			if err != nil {
				return nil, err
			}
			row[j] = stored(coerce(v, schema.Columns[j].Type))
		}
	}
	if _, err := tx.Insert(st.Table, row); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: 1}, nil
}

// execSelect runs a classical SELECT: compiled to an eq query, planned
// and streamed through a txReader, its rows read off the groundings' heads.
func (s *Session) execSelect(tx DataTx, st *SelectStmt) (*Result, error) {
	if len(st.From) == 0 {
		// Expression-only SELECT (e.g. SELECT @x).
		var row types.Tuple
		var cols []string
		for _, item := range st.Items {
			v, err := s.evalScalar(item.Expr)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			cols = append(cols, itemName(item))
		}
		res := &Result{Columns: cols, Rows: []types.Tuple{row}}
		s.applyBindings(st.Items, row)
		return res, nil
	}
	g := s.grounder(tx)
	defer g.release()
	cols, err := g.c.selectStmt(st)
	if err != nil {
		return nil, err
	}
	g.q = eq.Query{Head: g.c.head, Body: g.c.body, Where: g.c.where}
	gs, err := g.ev.Ground(&g.q, &g.r, eq.GroundOptions{MaxGroundings: st.Limit})
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: cols}
	if len(gs) > 0 {
		res.Rows = make([]types.Tuple, len(gs))
		vals := make([]types.Value, len(gs)*len(cols))
		for i, gr := range gs {
			res.Rows[i] = vals[i*len(cols) : (i+1)*len(cols) : (i+1)*len(cols)]
			copy(res.Rows[i], gr.Head[0].Args[len(st.From):])
		}
		s.applyBindings(st.Items, res.Rows[0])
	}
	return res, nil
}

// grounder is the memory a classical statement compiles, plans, reads and
// grounds in. A pool recycles it from statement to statement, so the
// statement's query and groundings live until it is released.
type grounder struct {
	c  eqCompiler
	q  eq.Query
	ev eq.Evaluator
	r  txReader
}

var grounders = sync.Pool{New: func() any { return &grounder{r: txReader{scans: make(map[string][]types.Tuple)}} }}

// grounder takes a grounder from the pool for a statement over tx.
func (s *Session) grounder(tx DataTx) *grounder {
	g := grounders.Get().(*grounder)
	g.c = eqCompiler{session: s, rowIDs: true, body: g.c.body[:0], head: g.c.head[:0], where: g.c.where[:0], scopes: g.c.scopes[:0]}
	g.r.tx, g.r.cat = tx, s.cat
	return g
}

// release returns g to the pool, dropping what it holds of the statement.
func (g *grounder) release() {
	clear(g.r.scans)
	g.c.session, g.r.tx, g.r.cat = nil, nil, nil
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

// execWrite grounds the rows of table that where selects, then updates
// them as set says or deletes them: every row is read before the first is
// written. Each grounding's head is the row id, then, for an UPDATE, the
// row as SET leaves it.
func (s *Session) execWrite(tx DataTx, table string, where Expr, set []Assign, update bool) (*Result, error) {
	g := s.grounder(tx)
	defer g.release()
	sc, err := g.c.block([]TableRef{{Name: table}}, where)
	if err != nil {
		return nil, err
	}
	t, arity := sc[0], len(sc[0].args)-1
	args := []eq.Term{t.args[arity]}
	if update {
		args = append(args, t.args[:arity]...)
	}
	for _, a := range set {
		j := t.schema.Index(a.Col)
		if j < 0 {
			return nil, fmt.Errorf("sql: no column %s in %s", a.Col, table)
		}
		term, _, err := g.c.term(a.Expr, sc)
		if err != nil {
			return nil, err
		}
		if term.IsConst() {
			term = eq.C(stored(coerce(term.Value, t.schema.Columns[j].Type)))
		}
		args[1+j] = term
	}
	g.c.head = append(g.c.head, eq.Atom{Rel: table, Args: args})
	g.q = eq.Query{Head: g.c.head, Body: g.c.body, Where: g.c.where}
	gs, err := g.ev.Ground(&g.q, &g.r, eq.GroundOptions{})
	if err != nil {
		return nil, err
	}
	for _, gr := range gs {
		row := gr.Head[0].Args
		id := storage.RowID(row[0].Int64())
		if update {
			err = tx.Update(table, id, row[1:].Clone())
		} else {
			err = tx.Delete(table, id)
		}
		if err != nil {
			return nil, err
		}
	}
	return &Result{RowsAffected: len(gs)}, nil
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
