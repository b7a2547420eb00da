package sql

import (
	"fmt"
	"strings"

	"repro/internal/eq"
	"repro/internal/storage"
	"repro/internal/types"
)

// DataTx is the data access surface the executor runs against. core.Tx
// satisfies it, so compiled programs run under the entangled transaction
// engine; txn.Txn satisfies the read/write subset for classical use.
type DataTx interface {
	Scan(table string) ([]types.Tuple, error)
	ScanIDs(table string) ([]storage.RowID, []types.Tuple, error)
	Lookup(table string, columns []string, key types.Tuple) ([]types.Tuple, error)
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
		return s.execSelect(tx, cat, st)
	case *EntangledSelectStmt:
		return s.execEntangled(tx, st)
	case *UpdateStmt:
		return s.execUpdate(tx, cat, st)
	case *DeleteStmt:
		return s.execDelete(tx, cat, st)
	case *SetStmt:
		v, err := s.evalScalar(st.Expr, nil, nil)
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

// coercePair aligns a string literal with a date operand for comparison.
func coercePair(a, b types.Value) (types.Value, types.Value) {
	if a.Kind() == types.KindDate && b.Kind() == types.KindString {
		return a, coerce(b, types.KindDate)
	}
	if a.Kind() == types.KindString && b.Kind() == types.KindDate {
		return coerce(a, types.KindDate), b
	}
	return a, b
}

// rowEnv resolves column references during row-wise evaluation.
type rowEnv struct {
	tables  []TableRef
	schemas []*types.Schema
	row     []types.Tuple // one tuple per FROM table
}

// resolve finds the value of a column reference.
func (r *rowEnv) resolve(c *Col) (types.Value, error) {
	if c.Table != "" {
		for i, ref := range r.tables {
			name := ref.Alias
			if name == "" {
				name = ref.Name
			}
			if strings.EqualFold(name, c.Table) {
				j := r.schemas[i].Index(c.Name)
				if j < 0 {
					return types.Null(), fmt.Errorf("sql: no column %s in %s", c.Name, ref.Name)
				}
				return r.row[i][j], nil
			}
		}
		return types.Null(), fmt.Errorf("sql: unknown table %s", c.Table)
	}
	for i := range r.tables {
		if j := r.schemas[i].Index(c.Name); j >= 0 {
			return r.row[i][j], nil
		}
	}
	return types.Null(), fmt.Errorf("sql: unknown column %s", c.Name)
}

// evalScalar evaluates an expression to a value. env may be nil for
// row-independent expressions.
func (s *Session) evalScalar(e Expr, env *rowEnv, tx DataTx) (types.Value, error) {
	switch ex := e.(type) {
	case *Lit:
		return ex.Val, nil
	case *Var:
		v, ok := s.Vars[strings.ToLower(ex.Name)]
		if !ok {
			return types.Null(), fmt.Errorf("sql: unbound variable @%s", ex.Name)
		}
		return v, nil
	case *Col:
		if env == nil {
			return types.Null(), fmt.Errorf("sql: column %s outside row context", ex.Name)
		}
		return env.resolve(ex)
	case *Binary:
		switch ex.Op {
		case "+", "-":
			l, err := s.evalScalar(ex.L, env, tx)
			if err != nil {
				return types.Null(), err
			}
			r, err := s.evalScalar(ex.R, env, tx)
			if err != nil {
				return types.Null(), err
			}
			l, r = coercePair(l, r)
			// '2011-05-06' - @day: coerce lone strings that parse as dates
			// when the other side is numeric.
			if l.Kind() == types.KindString {
				l = coerce(l, types.KindDate)
			}
			if r.Kind() == types.KindString {
				r = coerce(r, types.KindDate)
			}
			if ex.Op == "+" {
				return l.Add(r)
			}
			return l.Sub(r)
		default:
			b, err := s.evalBool(e, env, tx)
			if err != nil {
				return types.Null(), err
			}
			return types.Bool(b), nil
		}
	default:
		return types.Null(), fmt.Errorf("sql: expression %T has no scalar value", e)
	}
}

// evalBool evaluates a predicate.
func (s *Session) evalBool(e Expr, env *rowEnv, tx DataTx) (bool, error) {
	switch ex := e.(type) {
	case *Lit:
		return ex.Val.AsBool(), nil
	case *Binary:
		switch ex.Op {
		case "AND":
			l, err := s.evalBool(ex.L, env, tx)
			if err != nil || !l {
				return false, err
			}
			return s.evalBool(ex.R, env, tx)
		case "OR":
			l, err := s.evalBool(ex.L, env, tx)
			if err != nil {
				return false, err
			}
			if l {
				return true, nil
			}
			return s.evalBool(ex.R, env, tx)
		case "=", "<>", "<", "<=", ">", ">=":
			l, err := s.evalScalar(ex.L, env, tx)
			if err != nil {
				return false, err
			}
			r, err := s.evalScalar(ex.R, env, tx)
			if err != nil {
				return false, err
			}
			l, r = coercePair(l, r)
			if l.IsNull() || r.IsNull() {
				return false, nil
			}
			switch ex.Op {
			case "=":
				return l.Equal(r), nil
			case "<>":
				return !l.Equal(r), nil
			case "<":
				return l.Compare(r) < 0, nil
			case "<=":
				return l.Compare(r) <= 0, nil
			case ">":
				return l.Compare(r) > 0, nil
			case ">=":
				return l.Compare(r) >= 0, nil
			}
		}
		return false, fmt.Errorf("sql: operator %s is not a predicate", ex.Op)
	case *InSubquery:
		// Membership: evaluate the outer exprs, run the subquery, compare.
		key := make(types.Tuple, len(ex.Exprs))
		for i, oe := range ex.Exprs {
			v, err := s.evalScalar(oe, env, tx)
			if err != nil {
				return false, err
			}
			key[i] = v
		}
		res, err := s.execSelect(tx, s.cat, ex.Sub)
		if err != nil {
			return false, err
		}
		for _, row := range res.Rows {
			if len(row) != len(key) {
				return false, fmt.Errorf("sql: IN arity mismatch: %d vs %d", len(key), len(row))
			}
			match := true
			for i := range key {
				a, b := coercePair(key[i], row[i])
				if !a.Equal(b) {
					match = false
					break
				}
			}
			if match {
				return true, nil
			}
		}
		return false, nil
	case *InAnswer:
		return false, fmt.Errorf("sql: IN ANSWER is only meaningful inside an entangled SELECT")
	default:
		return false, fmt.Errorf("sql: expression %T is not a predicate", e)
	}
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
			v, err := s.evalScalar(e, nil, tx)
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
			v, err := s.evalScalar(st.Values[i], nil, tx)
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

// execSelect evaluates a classical SELECT by nested-loop join. The cat
// parameter may be nil; schemas come from scanning via DataTx plus the
// embedded storage schema — so we need catalog access; exec keeps a
// reference through the closure below.
func (s *Session) execSelect(tx DataTx, cat Catalog, st *SelectStmt) (*Result, error) {
	if len(st.From) == 0 {
		// Expression-only SELECT (e.g. SELECT @x).
		var row types.Tuple
		var cols []string
		for _, item := range st.Items {
			v, err := s.evalScalar(item.Expr, nil, tx)
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
	env := &rowEnv{tables: st.From}
	var data [][]types.Tuple
	for _, ref := range st.From {
		rows, err := s.selectRows(tx, cat, st, ref)
		if err != nil {
			return nil, err
		}
		schema, err := s.schemaOf(tx, cat, ref.Name)
		if err != nil {
			return nil, err
		}
		env.schemas = append(env.schemas, schema)
		data = append(data, rows)
	}
	var cols []string
	for _, item := range st.Items {
		if item.Star {
			for i := range st.From {
				for _, c := range env.schemas[i].Columns {
					cols = append(cols, c.Name)
				}
			}
		} else {
			cols = append(cols, itemName(item))
		}
	}
	res := &Result{Columns: cols}
	env.row = make([]types.Tuple, len(st.From))
	var recurse func(i int) error
	recurse = func(i int) error {
		if st.Limit > 0 && len(res.Rows) >= st.Limit {
			return nil
		}
		if i == len(st.From) {
			if st.Where != nil {
				ok, err := s.evalBool(st.Where, env, tx)
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
			}
			var out types.Tuple
			for _, item := range st.Items {
				if item.Star {
					for j := range st.From {
						out = append(out, env.row[j]...)
					}
					continue
				}
				v, err := s.evalScalar(item.Expr, env, tx)
				if err != nil {
					return err
				}
				out = append(out, v)
			}
			res.Rows = append(res.Rows, out)
			return nil
		}
		for _, row := range data[i] {
			env.row[i] = row
			if err := recurse(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := recurse(0); err != nil {
		return nil, err
	}
	if len(res.Rows) > 0 {
		s.applyBindings(st.Items, res.Rows[0])
	}
	return res, nil
}

// selectRows fetches one FROM table's rows: a single-table SELECT whose
// WHERE pins an equality index routes through the hash index, everything
// else scans.
func (s *Session) selectRows(tx DataTx, cat Catalog, st *SelectStmt, ref TableRef) ([]types.Tuple, error) {
	if len(st.From) == 1 && st.Where != nil {
		c := cat
		if c == nil {
			c = s.cat
		}
		if c != nil {
			if tbl, err := c.Get(ref.Name); err == nil {
				_, rows, err := s.scanOrProbe(tx, tbl, ref.Name, ref.Alias, st.Where)
				return rows, err
			}
		}
	}
	return tx.Scan(ref.Name)
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

// schemaOf fetches a table's schema through the catalog.
func (s *Session) schemaOf(tx DataTx, cat Catalog, table string) (*types.Schema, error) {
	if cat == nil {
		return nil, fmt.Errorf("sql: no catalog available to resolve %s", table)
	}
	tbl, err := cat.Get(table)
	if err != nil {
		return nil, err
	}
	return tbl.Schema(), nil
}

// equalityKeys extracts the row-independent equality conjuncts of a WHERE
// clause over a single table: column = literal/@var/foldable-expression.
// They are the probe candidates for index routing.
func (s *Session) equalityKeys(where Expr, tx DataTx, table string, alias string) map[string]types.Value {
	out := make(map[string]types.Value)
	for _, cl := range flattenAnd(where) {
		b, ok := cl.(*Binary)
		if !ok || b.Op != "=" {
			continue
		}
		col, val := b.L, b.R
		if _, ok := col.(*Col); !ok {
			col, val = b.R, b.L
		}
		c, ok := col.(*Col)
		if !ok {
			continue
		}
		if c.Table != "" && !strings.EqualFold(c.Table, table) && !strings.EqualFold(c.Table, alias) {
			continue
		}
		v, err := s.evalScalar(val, nil, tx)
		if err != nil {
			continue // row-dependent or unbound: not a probe constant
		}
		key := strings.ToLower(c.Name)
		if _, dup := out[key]; !dup {
			out[key] = v
		}
	}
	return out
}

// scanOrProbe fetches the candidate (id, row) pairs for a single-table
// statement: when the WHERE clause pins every column of some equality
// index to a constant, the read routes through the hash index (row-granular
// locks / snapshot point reads) instead of a full table scan. The caller
// still evaluates the complete WHERE clause per row — the equality
// conjuncts simply re-verify against the probe key.
//
// Locking trade-off: under the 2PL levels the probe takes IS + per-row S
// locks instead of the table S lock a scan takes, so predicate phantoms
// against concurrent inserts become possible (the documented txn.Lookup
// semantics, as in an InnoDB index read without gap locks). Entangled
// grounding and quasi-read protection are unaffected — they run on
// Scan-level table locks and round-snapshot validation in internal/core.
func (s *Session) scanOrProbe(tx DataTx, tbl *storage.Table, table string, alias string, where Expr) ([]storage.RowID, []types.Tuple, error) {
	if where != nil {
		eqKeys := s.equalityKeys(where, tx, table, alias)
		if len(eqKeys) > 0 {
			schema := tbl.Schema()
			for _, ix := range tbl.Indexes() {
				key := make(types.Tuple, 0, len(ix.Columns))
				usable := true
				for _, col := range ix.Columns {
					v, ok := eqKeys[strings.ToLower(col)]
					if !ok {
						usable = false
						break
					}
					key = append(key, coerce(v, schema.Columns[schema.Index(col)].Type))
				}
				if usable {
					return tx.LookupIDs(table, ix.Columns, key)
				}
			}
		}
	}
	return tx.ScanIDs(table)
}

func (s *Session) execUpdate(tx DataTx, cat Catalog, st *UpdateStmt) (*Result, error) {
	tbl, err := cat.Get(st.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	ids, rows, err := s.scanOrProbe(tx, tbl, st.Table, "", st.Where)
	if err != nil {
		return nil, err
	}
	env := &rowEnv{tables: []TableRef{{Name: st.Table}}, schemas: []*types.Schema{schema}, row: make([]types.Tuple, 1)}
	affected := 0
	for i, id := range ids {
		env.row[0] = rows[i]
		if st.Where != nil {
			ok, err := s.evalBool(st.Where, env, tx)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		newRow := rows[i].Clone()
		for col, e := range st.Set {
			j := schema.Index(col)
			if j < 0 {
				return nil, fmt.Errorf("sql: no column %s in %s", col, st.Table)
			}
			v, err := s.evalScalar(e, env, tx)
			if err != nil {
				return nil, err
			}
			newRow[j] = stored(coerce(v, schema.Columns[j].Type))
		}
		if err := tx.Update(st.Table, id, newRow); err != nil {
			return nil, err
		}
		affected++
	}
	return &Result{RowsAffected: affected}, nil
}

func (s *Session) execDelete(tx DataTx, cat Catalog, st *DeleteStmt) (*Result, error) {
	tbl, err := cat.Get(st.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	ids, rows, err := s.scanOrProbe(tx, tbl, st.Table, "", st.Where)
	if err != nil {
		return nil, err
	}
	env := &rowEnv{tables: []TableRef{{Name: st.Table}}, schemas: []*types.Schema{schema}, row: make([]types.Tuple, 1)}
	affected := 0
	for i, id := range ids {
		env.row[0] = rows[i]
		if st.Where != nil {
			ok, err := s.evalBool(st.Where, env, tx)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		if err := tx.Delete(st.Table, id); err != nil {
			return nil, err
		}
		affected++
	}
	return &Result{RowsAffected: affected}, nil
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
