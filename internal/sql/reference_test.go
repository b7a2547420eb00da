package sql

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
)

// refSelect is the nested-loop executor classical SELECTs ran on before
// they compiled to eq plans, kept as the differential-testing oracle: it
// reads every FROM table whole, walks their cross product in FROM order and
// evaluates the WHERE clause on each combination, re-running an IN
// subquery once per combination. Two rules follow SQL where the old
// executor did not: arithmetic with a NULL operand is NULL (it was an
// error), and a NULL never matches in IN (NULL IN (SELECT ...) was true
// when the subquery returned a NULL).
func refSelect(s *Session, tx DataTx, cat Catalog, st *SelectStmt) (*Result, error) {
	env := &refEnv{tables: st.From}
	var data [][]types.Tuple
	for _, ref := range st.From {
		tbl, err := cat.Get(ref.Name)
		if err != nil {
			return nil, err
		}
		_, rows, err := tx.ScanIDs(ref.Name)
		if err != nil {
			return nil, err
		}
		env.schemas = append(env.schemas, tbl.Schema())
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
				ok, err := refBool(s, tx, cat, st.Where, env)
				if err != nil || !ok {
					return err
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
				v, err := refScalar(s, tx, cat, item.Expr, env)
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
	return res, nil
}

// refEnv resolves column references against one row per FROM table.
type refEnv struct {
	tables  []TableRef
	schemas []*types.Schema
	row     []types.Tuple
}

func (r *refEnv) resolve(c *Col) (types.Value, error) {
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

// refCoercePair aligns a string with a date operand for comparison.
func refCoercePair(a, b types.Value) (types.Value, types.Value) {
	if a.Kind() == types.KindDate && b.Kind() == types.KindString {
		return a, refCoerceDate(b)
	}
	if a.Kind() == types.KindString && b.Kind() == types.KindDate {
		return refCoerceDate(a), b
	}
	return a, b
}

// refCoerceDate turns a string that parses as a date into that date.
func refCoerceDate(v types.Value) types.Value {
	if v.Kind() == types.KindString {
		if d, err := types.DateFromString(v.Str64()); err == nil {
			return d
		}
	}
	return v
}

func refScalar(s *Session, tx DataTx, cat Catalog, e Expr, env *refEnv) (types.Value, error) {
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
		return env.resolve(ex)
	case *Binary:
		switch ex.Op {
		case "+", "-":
			l, err := refScalar(s, tx, cat, ex.L, env)
			if err != nil {
				return types.Null(), err
			}
			r, err := refScalar(s, tx, cat, ex.R, env)
			if err != nil {
				return types.Null(), err
			}
			l, r = refCoercePair(l, r)
			l, r = refCoerceDate(l), refCoerceDate(r)
			if l.IsNull() || r.IsNull() {
				return types.Null(), nil
			}
			if ex.Op == "+" {
				return l.Add(r)
			}
			return l.Sub(r)
		default:
			b, err := refBool(s, tx, cat, e, env)
			return types.Bool(b), err
		}
	default:
		return types.Null(), fmt.Errorf("sql: expression %T has no scalar value", e)
	}
}

func refBool(s *Session, tx DataTx, cat Catalog, e Expr, env *refEnv) (bool, error) {
	switch ex := e.(type) {
	case *Lit:
		return ex.Val.Equal(types.Bool(true)), nil
	case *Binary:
		switch ex.Op {
		case "AND":
			l, err := refBool(s, tx, cat, ex.L, env)
			if err != nil || !l {
				return false, err
			}
			return refBool(s, tx, cat, ex.R, env)
		case "OR":
			l, err := refBool(s, tx, cat, ex.L, env)
			if err != nil || l {
				return l, err
			}
			return refBool(s, tx, cat, ex.R, env)
		case "=", "<>", "<", "<=", ">", ">=":
			l, err := refScalar(s, tx, cat, ex.L, env)
			if err != nil {
				return false, err
			}
			r, err := refScalar(s, tx, cat, ex.R, env)
			if err != nil {
				return false, err
			}
			l, r = refCoercePair(l, r)
			if l.IsNull() || r.IsNull() {
				return false, nil
			}
			c := l.Compare(r)
			switch ex.Op {
			case "=":
				return l.Equal(r), nil
			case "<>":
				return !l.Equal(r), nil
			case "<":
				return c < 0, nil
			case "<=":
				return c <= 0, nil
			case ">":
				return c > 0, nil
			default:
				return c >= 0, nil
			}
		}
		return false, fmt.Errorf("sql: operator %s is not a predicate", ex.Op)
	case *InSubquery:
		key := make(types.Tuple, len(ex.Exprs))
		for i, oe := range ex.Exprs {
			v, err := refScalar(s, tx, cat, oe, env)
			if err != nil {
				return false, err
			}
			key[i] = v
		}
		res, err := refSelect(s, tx, cat, ex.Sub)
		if err != nil {
			return false, err
		}
		for _, row := range res.Rows {
			if len(row) != len(key) {
				return false, fmt.Errorf("sql: IN arity mismatch: %d vs %d", len(key), len(row))
			}
			match := true
			for i := range key {
				a, b := refCoercePair(key[i], row[i])
				if a.IsNull() || b.IsNull() || !a.Equal(b) {
					match = false
					break
				}
			}
			if match {
				return true, nil
			}
		}
		return false, nil
	default:
		return false, fmt.Errorf("sql: expression %T is not a predicate", e)
	}
}

// newRandomEngine builds three small tables with NULLs and duplicate rows,
// two of them indexed, for the differential test.
func newRandomEngine(t *testing.T, rng *rand.Rand) (*core.Engine, *storage.Catalog) {
	t.Helper()
	cat := storage.NewCatalog()
	txm := txn.NewManager(cat, lock.New(500*time.Millisecond), nil)
	for _, src := range []string{
		"CREATE TABLE R (a INT, b INT, s VARCHAR)",
		"CREATE TABLE S (a INT, c INT, d DATE)",
		"CREATE TABLE T (c INT, s VARCHAR)",
		"CREATE INDEX r_a ON R (a)",
		"CREATE INDEX s_ac ON S (a, c)",
	} {
		st, err := ParseOne(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := ExecDDL(txm, st); err != nil {
			t.Fatal(err)
		}
	}
	e := core.NewEngine(txm, core.Options{RunFrequency: 2})
	t.Cleanup(e.Close)
	var ins []string
	for i := 0; i < 10; i++ {
		ins = append(ins,
			fmt.Sprintf("INSERT INTO R VALUES (%s, %s, %s)", randInt(rng), randInt(rng), randStr(rng)),
			fmt.Sprintf("INSERT INTO S VALUES (%s, %s, %s)", randInt(rng), randInt(rng), randDate(rng)),
			fmt.Sprintf("INSERT INTO T VALUES (%s, %s)", randInt(rng), randStr(rng)))
	}
	if _, err := execAll(e, cat, strings.Join(ins, ";")); err != nil {
		t.Fatal(err)
	}
	return e, cat
}

func randInt(rng *rand.Rand) string {
	if rng.Intn(6) == 0 {
		return "NULL"
	}
	return fmt.Sprint(rng.Intn(4))
}

func randStr(rng *rand.Rand) string {
	if rng.Intn(6) == 0 {
		return "NULL"
	}
	return fmt.Sprintf("'%c'", 'x'+rng.Intn(3))
}

func randDate(rng *rand.Rand) string {
	if rng.Intn(6) == 0 {
		return "NULL"
	}
	return fmt.Sprintf("'2011-05-0%d'", 1+rng.Intn(3))
}

// randColumns are the columns of the random schema by type.
var randColumns = map[string]map[string][]string{
	"R": {"int": {"a", "b"}, "str": {"s"}},
	"S": {"int": {"a", "c"}, "date": {"d"}},
	"T": {"int": {"c"}, "str": {"s"}},
}

// randQuery generates a one- to three-table SELECT over the random schema.
type randQuery struct {
	rng  *rand.Rand
	from []string // table per alias t0, t1, ...
}

func (g *randQuery) col(kind string) (string, bool) {
	var out []string
	for i, tbl := range g.from {
		for _, c := range randColumns[tbl][kind] {
			out = append(out, fmt.Sprintf("t%d.%s", i, c))
		}
	}
	if len(out) == 0 {
		return "", false
	}
	return out[g.rng.Intn(len(out))], true
}

func (g *randQuery) lit(kind string) string {
	switch kind {
	case "str":
		return fmt.Sprintf("'%c'", 'x'+g.rng.Intn(3))
	case "date":
		return fmt.Sprintf("'2011-05-0%d'", 1+g.rng.Intn(3))
	}
	return fmt.Sprint(g.rng.Intn(4))
}

var randOps = []string{"=", "=", "=", "<>", "<", "<=", ">", ">="}

// cmp is one comparison: column against column, literal or @v + 1.
func (g *randQuery) cmp() string {
	kinds := []string{"int", "int", "str", "date"}
	kind := kinds[g.rng.Intn(len(kinds))]
	c, ok := g.col(kind)
	if !ok {
		c, _ = g.col("int")
		kind = "int"
	}
	op := randOps[g.rng.Intn(len(randOps))]
	switch g.rng.Intn(5) {
	case 0, 1:
		if other, ok := g.col(kind); ok && other != c {
			return fmt.Sprintf("%s %s %s", c, op, other)
		}
	case 2:
		if kind == "int" {
			return fmt.Sprintf("%s %s @v + 1", c, op)
		}
	}
	return fmt.Sprintf("%s %s %s", c, op, g.lit(kind))
}

func (g *randQuery) conjunct() string {
	switch g.rng.Intn(6) {
	case 0:
		return fmt.Sprintf("(%s OR %s)", g.cmp(), g.cmp())
	case 1:
		c, _ := g.col("int")
		sub := []string{"R", "S", "T"}[g.rng.Intn(3)]
		subCol := randColumns[sub]["int"][g.rng.Intn(len(randColumns[sub]["int"]))]
		where := ""
		if g.rng.Intn(2) == 0 {
			where = fmt.Sprintf(" WHERE %s %s %d", subCol, randOps[g.rng.Intn(len(randOps))], g.rng.Intn(4))
		}
		return fmt.Sprintf("%s IN (SELECT %s FROM %s%s)", c, subCol, sub, where)
	}
	return g.cmp()
}

func (g *randQuery) next() string {
	g.from = g.from[:0]
	var refs []string
	for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
		tbl := []string{"R", "S", "T"}[g.rng.Intn(3)]
		g.from = append(g.from, tbl)
		refs = append(refs, fmt.Sprintf("%s t%d", tbl, i))
	}
	var items []string
	if g.rng.Intn(8) == 0 {
		items = []string{"*"}
	} else {
		for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
			kind := []string{"int", "str", "date"}[g.rng.Intn(3)]
			c, ok := g.col(kind)
			if !ok {
				c, _ = g.col("int")
			}
			switch g.rng.Intn(8) {
			case 0:
				c = "@v"
			case 1:
				c = "'k'"
			}
			items = append(items, c)
		}
	}
	src := fmt.Sprintf("SELECT %s FROM %s", strings.Join(items, ", "), strings.Join(refs, ", "))
	var conj []string
	for i, n := 0, g.rng.Intn(4); i < n; i++ {
		conj = append(conj, g.conjunct())
	}
	if len(conj) > 0 {
		src += " WHERE " + strings.Join(conj, " AND ")
	}
	if g.rng.Intn(6) == 0 {
		src += fmt.Sprintf(" LIMIT %d", 1+g.rng.Intn(3))
	}
	return src
}

// TestClassicalMatchesReference runs seeded random one- to three-table
// SELECTs through the executor and through refSelect and compares the
// results as multisets: same columns, same rows, or both an error. Under
// LIMIT n the rows are min(n, all) of the reference's unlimited rows.
func TestClassicalMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e, cat := newRandomEngine(t, rng)
		g := &randQuery{rng: rng}
		for i := 0; i < 60; i++ {
			src := g.next()
			st, err := ParseOne(src)
			if err != nil {
				t.Fatalf("parse %q: %v", src, err)
			}
			sel := st.(*SelectStmt)
			var got, want *Result
			var gotErr, wantErr error
			e.RunDirect(core.Program{Body: func(tx *core.Tx) error {
				s := NewSession()
				s.Vars["v"] = types.Int(1)
				got, gotErr = s.Exec(tx, cat, sel)
				all := *sel
				all.Limit = 0
				want, wantErr = refSelect(s, tx, cat, &all)
				return nil
			}})
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("seed %d %q: error %v, reference error %v", seed, src, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if !slices.Equal(got.Columns, want.Columns) {
				t.Fatalf("seed %d %q: columns %v, reference %v", seed, src, got.Columns, want.Columns)
			}
			g, w := rowStrings(got.Rows), rowStrings(want.Rows)
			if sel.Limit > 0 {
				if len(g) != min(sel.Limit, len(w)) || !subMultiset(g, w) {
					t.Fatalf("seed %d %q:\n rows      %v\n reference %v", seed, src, g, w)
				}
				continue
			}
			if !slices.Equal(g, w) {
				t.Fatalf("seed %d %q:\n rows      %v\n reference %v", seed, src, g, w)
			}
		}
	}
}

// subMultiset reports whether sorted a is a sub-multiset of sorted b.
func subMultiset(a, b []string) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}
