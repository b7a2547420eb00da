package sql

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/eq"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
)

// shapeFixture is an engine over Notes(id, who, n, d), ids 1-5 and no
// index, with a statement cache over its catalog.
func shapeFixture(t testing.TB) (*core.Engine, *txn.Manager, *Cache) {
	t.Helper()
	cat := storage.NewCatalog()
	txm := txn.NewManager(cat, lock.New(500*time.Millisecond), nil)
	st, err := ParseOne("CREATE TABLE Notes (id INT, who VARCHAR, n INT, d DATE)")
	if err != nil {
		t.Fatal(err)
	}
	if err := ExecDDL(txm, st); err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(txm, core.Options{RunFrequency: 2})
	t.Cleanup(e.Close)
	var rows []string
	for i := 1; i <= 5; i++ {
		rows = append(rows, fmt.Sprintf("INSERT INTO Notes VALUES (%d, 'w%d', %d, '2011-05-0%d')", i, i, 10*i, i))
	}
	if _, err := execAll(e, cat, strings.Join(rows, ";")); err != nil {
		t.Fatal(err)
	}
	return e, txm, NewCache(cat)
}

// size reports the number of shapes c holds.
func (c *Cache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// runShaped parses src through c and runs its statements in one
// transaction and in session s, through a countingTx.
func runShaped(e *core.Engine, c *Cache, s *Session, src string) (*Result, *countingTx, error) {
	stmts, err := c.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	counter := &countingTx{}
	var res *Result
	o := e.RunDirect(core.Program{Body: func(tx *core.Tx) error {
		counter.DataTx = tx
		for i := range stmts {
			var err error
			if res, err = s.Run(counter, &stmts[i]); err != nil {
				return err
			}
		}
		return nil
	}})
	if o.Status != core.StatusCommitted {
		return nil, counter, fmt.Errorf("%v: %w", o.Status, o.Err)
	}
	return res, counter, nil
}

// mustRun is runShaped that fails the test on an error.
func mustRun(t *testing.T, e *core.Engine, c *Cache, s *Session, src string) (*Result, *countingTx) {
	t.Helper()
	res, counter, err := runShaped(e, c, s, src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return res, counter
}

// TestShapeSeesNewIndex: a shape cached while its table has no index scans;
// after CREATE INDEX the same shape probes the index.
func TestShapeSeesNewIndex(t *testing.T) {
	e, txm, c := shapeFixture(t)
	s := NewSession()
	for id := 1; id <= 3; id++ {
		res, counter := mustRun(t, e, c, s, fmt.Sprintf("SELECT n FROM Notes WHERE id=%d", id))
		if len(res.Rows) != 1 || res.Rows[0][0].Int64() != int64(10*id) {
			t.Fatalf("id %d: rows %v", id, res.Rows)
		}
		if counter.scans != 1 || counter.lookups != 0 {
			t.Fatalf("without an index: scans=%d lookups=%d, want 1/0", counter.scans, counter.lookups)
		}
	}
	if c.size() != 1 {
		t.Fatalf("cache holds %d shapes, want 1", c.size())
	}
	st, _ := ParseOne("CREATE INDEX notes_id ON Notes (id)")
	if err := ExecDDL(txm, st); err != nil {
		t.Fatal(err)
	}
	res, counter := mustRun(t, e, c, s, "SELECT n FROM Notes WHERE id=4")
	if len(res.Rows) != 1 || res.Rows[0][0].Int64() != 40 {
		t.Fatalf("rows %v", res.Rows)
	}
	if counter.lookups != 1 || counter.scans != 0 {
		t.Fatalf("after CREATE INDEX: scans=%d lookups=%d, want 0/1", counter.scans, counter.lookups)
	}
}

// TestShapeSessionVariable: a session variable is a parameter, so one
// cached shape reads each execution's value, and its kind.
func TestShapeSessionVariable(t *testing.T) {
	e, _, c := shapeFixture(t)
	s := NewSession()
	for _, tc := range []struct {
		set  string
		want []string
	}{
		{"1", []string{"(10)"}},
		{"2", []string{"(20)"}},
		{"2", []string{"(20)"}},
		{"'3'", nil}, // a string never equals an INT id
		{"3", []string{"(30)"}},
		{"NULL", nil},
		{"4", []string{"(40)"}},
	} {
		mustRun(t, e, c, s, "SET @x = "+tc.set)
		for range 2 {
			res, _ := mustRun(t, e, c, s, "SELECT n FROM Notes WHERE id=@x")
			if got := rowStrings(res.Rows); !slices.Equal(got, tc.want) {
				t.Fatalf("@x = %s: rows %v, want %v", tc.set, got, tc.want)
			}
		}
	}
	// Another session without @x: the cached shape still errors.
	_, _, err := runShaped(e, c, NewSession(), "SELECT n FROM Notes WHERE id=@x")
	if err == nil || !strings.Contains(err.Error(), "unbound variable @x") {
		t.Fatalf("unbound @x: %v", err)
	}
}

// TestShapeLiteralKinds: a literal's kind is part of the shape, and a
// string compared with a DATE column is a date only when it reads as one.
func TestShapeLiteralKinds(t *testing.T) {
	e, _, c := shapeFixture(t)
	s := NewSession()
	for _, tc := range []struct {
		src  string
		want []string
	}{
		{"SELECT id FROM Notes WHERE n = '20'", nil},
		{"SELECT id FROM Notes WHERE n = 20", []string{"(2)"}},
		{"SELECT id FROM Notes WHERE n = '20'", nil},
		{"SELECT id FROM Notes WHERE n = 30", []string{"(3)"}},
		{"SELECT id FROM Notes WHERE d = '2011-05-03'", []string{"(3)"}},
		{"SELECT id FROM Notes WHERE d = 'soon'", nil},
		{"SELECT id FROM Notes WHERE d = '2011-05-04'", []string{"(4)"}},
		{"SELECT id FROM Notes WHERE d = 'later'", nil},
		{"SELECT id FROM Notes WHERE d >= '2011-05-04' - 1 AND d < '2011-05-06'", []string{"(3)", "(4)", "(5)"}},
		{"SELECT id FROM Notes WHERE d >= '2011-05-02' - 1 AND d < '2011-05-03'", []string{"(1)", "(2)"}},
	} {
		for range 2 {
			res, _ := mustRun(t, e, c, s, tc.src)
			if got := rowStrings(res.Rows); !slices.Equal(got, tc.want) {
				t.Fatalf("%s: rows %v, want %v", tc.src, got, tc.want)
			}
		}
	}
}

// TestShapeLimit: LIMIT is part of the shape.
func TestShapeLimit(t *testing.T) {
	e, _, c := shapeFixture(t)
	s := NewSession()
	for _, n := range []int{1, 2, 1, 2, 5} {
		res, _ := mustRun(t, e, c, s, fmt.Sprintf("SELECT id FROM Notes WHERE n > 0 LIMIT %d", n))
		if len(res.Rows) != n {
			t.Fatalf("LIMIT %d: %d rows", n, len(res.Rows))
		}
	}
}

// TestShapeUnknownNamesErrorEveryTime: a statement naming an unknown
// column or table errors on every execution, with the message the
// uncached path gives.
func TestShapeUnknownNamesErrorEveryTime(t *testing.T) {
	e, _, c := shapeFixture(t)
	cat := c.cat
	for _, src := range []string{
		"SELECT nope FROM Notes WHERE id = 1",
		"SELECT n FROM Nowhere WHERE id = 1",
		"UPDATE Notes SET nope = 1 WHERE id = 1",
		"INSERT INTO Notes (id, nope) VALUES (1, 2)",
	} {
		_, want := execAll(e, cat, src)
		if want == nil {
			t.Fatalf("%s: no error uncached", src)
		}
		for i := 0; i < 3; i++ {
			_, _, err := runShaped(e, c, NewSession(), src)
			if err == nil || !strings.Contains(err.Error(), want.Error()) {
				t.Fatalf("%s, execution %d: error %v, want %v", src, i+1, err, want)
			}
		}
	}
}

// TestShapeWritesMatchExec: INSERT, UPDATE and DELETE shapes, run with
// changing literals, leave the table as uncached statements do.
func TestShapeWritesMatchExec(t *testing.T) {
	e, _, c := shapeFixture(t)
	e2, _, c2 := shapeFixture(t)
	s := NewSession()
	var script []string
	for i := 0; i < 6; i++ {
		script = append(script,
			fmt.Sprintf("INSERT INTO Notes VALUES (%d, 'v%d', %d, '2011-06-0%d')", 10+i, i, i, 1+i%3),
			fmt.Sprintf("INSERT INTO Notes (id, d) VALUES (%d, '2011-07-0%d')", 20+i, 1+i%2),
			fmt.Sprintf("UPDATE Notes SET n = n + %d, who = 'u%d' WHERE id = %d", i, i, 1+i%5),
			fmt.Sprintf("UPDATE Notes SET d = '2011-08-0%d' WHERE n >= %d", 1+i%3, 40+i),
			fmt.Sprintf("DELETE FROM Notes WHERE id = %d", 20+i/2))
	}
	for _, src := range script {
		mustRun(t, e, c, s, src)
		if _, err := execAll(e2, c2.cat, src); err != nil {
			t.Fatal(err)
		}
	}
	all := "SELECT * FROM Notes"
	got, _ := mustRun(t, e, c, s, all)
	want, err := execAll(e2, c2.cat, all)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := rowStrings(got.Rows), rowStrings(want.Rows); !slices.Equal(g, w) {
		t.Fatalf("rows\n %v\nuncached\n %v", g, w)
	}
}

// TestShapeMatchesExec runs seeded random SELECTs, with @v changing value
// and kind, through a cache and through Exec, and compares: same columns
// and rows, or the same error. Each runs three times, the third from the
// cache, and the generator repeats shapes with other literals.
func TestShapeMatchesExec(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e, cat := newRandomEngine(t, rng)
		c := NewCache(cat)
		g := &randQuery{rng: rng}
		s := NewSession()
		for i := 0; i < 300; i++ {
			src := g.next()
			s.Vars["v"] = []types.Value{types.Int(1), types.Int(2), types.Str("x"), types.Null()}[rng.Intn(4)]
			want, wantErr := execAllIn(e, cat, s, src)
			for run := range 3 { // the second sighting caches the shape, the third hits
				stmts, err := c.Parse(src)
				if err != nil {
					t.Fatal(err)
				}
				if run == 2 && wantErr == nil && stmts[0].cs == nil {
					t.Fatalf("seed %d %q: not cached by its third execution", seed, src)
				}
				var got *Result
				var gotErr error
				e.RunDirect(core.Program{Body: func(tx *core.Tx) error {
					got, gotErr = s.Run(tx, &stmts[0])
					return nil
				}})
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("seed %d %q (@v %v): error %v, uncached %v", seed, src, s.Vars["v"], gotErr, wantErr)
				}
				if gotErr != nil {
					continue
				}
				if !slices.Equal(got.Columns, want.Columns) || !slices.Equal(rowStrings(got.Rows), rowStrings(want.Rows)) {
					t.Fatalf("seed %d %q (@v %v):\n %v %v\nuncached\n %v %v", seed, src, s.Vars["v"],
						got.Columns, rowStrings(got.Rows), want.Columns, rowStrings(want.Rows))
				}
			}
		}
	}
}

// raceDetector is set when the tests run under the race detector.
var raceDetector bool

// execAllIn runs one statement through Exec in session s.
func execAllIn(e *core.Engine, cat *storage.Catalog, s *Session, src string) (*Result, error) {
	st, err := ParseOne(src)
	if err != nil {
		return nil, err
	}
	var res *Result
	e.RunDirect(core.Program{Body: func(tx *core.Tx) error {
		res, err = s.Exec(tx, cat, st)
		return nil
	}})
	return res, err
}

// TestShapeCacheHeapBounded: 100,000 distinct shapes, each run twice so
// that it enters the cache, leave the cache at its bound and the heap
// where 10,000 left it.
func TestShapeCacheHeapBounded(t *testing.T) {
	e, _, c := shapeFixture(t)
	s := NewSession()
	n := 0
	soak := func(shapes int) uint64 {
		for end := n + shapes; n < end; n++ {
			src := fmt.Sprintf("SELECT n AS c%d FROM Notes WHERE id = %d", n, 1+n%5)
			for range 2 {
				if res, _ := mustRun(t, e, c, s, src); len(res.Rows) != 1 {
					t.Fatalf("%s: rows %v", src, res.Rows)
				}
			}
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	shapes := 100_000
	if testing.Short() || raceDetector {
		shapes = 20_000
	}
	at10 := soak(shapes / 10)
	at100 := soak(shapes - shapes/10)
	t.Logf("heap %.1f MB after %d shapes, %.1f MB after %d; cache holds %d", float64(at10)/1e6, shapes/10, float64(at100)/1e6, shapes, c.size())
	if c.size() > maxShapes {
		t.Fatalf("cache holds %d shapes, bound %d", c.size(), maxShapes)
	}
	if float64(at100) > 1.3*float64(at10) {
		t.Fatalf("heap grew from %d to %d bytes", at10, at100)
	}
}

// TestShapeDoesNotPinScript: a cached shape holds its key, not the script
// it was first parsed from.
func TestShapeDoesNotPinScript(t *testing.T) {
	e, _, c := shapeFixture(t)
	s := NewSession()
	pad := strings.Repeat(" ", 1<<20)
	for range 2 {
		mustRun(t, e, c, s, "SELECT n FROM Notes WHERE who = 'w1'"+pad)
	}
	for _, cs := range c.m {
		if size := len(cs.key); size > 1024 {
			t.Fatalf("key of %d bytes", size)
		}
		if !shapeStringsIn(reflect.ValueOf(cs.stmt), cs.key) {
			t.Fatalf("cached statement %+v holds a string outside its key", cs.stmt)
		}
	}
}

// shapeStringsIn reports whether every non-empty string v reaches lies in
// key's memory.
func shapeStringsIn(v reflect.Value, key string) bool {
	switch v.Kind() {
	case reflect.String:
		str := v.String()
		if str == "" {
			return true
		}
		k, p := unsafeStringData(key), unsafeStringData(str)
		return p >= k && p+uintptr(len(str)) <= k+uintptr(len(key))
	case reflect.Pointer, reflect.Interface:
		return v.IsNil() || shapeStringsIn(v.Elem(), key)
	case reflect.Struct:
		for i := range v.NumField() {
			if !shapeStringsIn(v.Field(i), key) {
				return false
			}
		}
	case reflect.Slice:
		for i := range v.Len() {
			if !shapeStringsIn(v.Index(i), key) {
				return false
			}
		}
	}
	return true
}

func unsafeStringData(s string) uintptr { return uintptr(unsafe.Pointer(unsafe.StringData(s))) }

// FuzzStatementShape: statements with one shape key parse alike but for
// their literals, and text that fails to parse never yields a cache entry.
// Each input runs twice through a cache over Flights and Airlines (against
// empty tables), so that its classical statements enter it. It is then
// re-rendered from its tokens with every parameter literal changed; the
// variant must have the input's keys and its shape parse, filling either's
// parameters with its own literal values must give exactly what Parse
// gives for that text, and a cached statement must be its shape parse.
func FuzzStatementShape(f *testing.F) {
	for _, src := range seedScripts {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		cat := storage.NewCatalog()
		for name, cols := range map[string][]types.Column{
			"Flights":  {{Name: "fno", Type: types.KindInt}, {Name: "fdate", Type: types.KindDate}, {Name: "dest", Type: types.KindString}},
			"Airlines": {{Name: "fno", Type: types.KindInt}, {Name: "airline", Type: types.KindString}},
		} {
			if _, err := cat.Create(name, types.NewSchema(cols...)); err != nil {
				t.Fatal(err)
			}
		}
		c := NewCache(cat)
		s := NewSession()
		for range 2 {
			stmts, err := c.Parse(src)
			if err != nil {
				if n := c.size(); n != 0 {
					t.Fatalf("%q fails to parse (%v) yet left %d cache entries", src, err, n)
				}
				return
			}
			for i := range stmts {
				s.Run(emptyTx{}, &stmts[i]) // errors are the statement's own
			}
		}
		toks, err := lex(src)
		if err != nil {
			t.Fatalf("%q parses but does not lex: %v", src, err)
		}
		variant := render(toks, true)
		a, errA := shapeParse(src)
		b, errB := shapeParse(variant)
		if errA != nil || errB != nil {
			t.Fatalf("shape parse of %q: %v; of its variant %q: %v", src, errA, variant, errB)
		}
		if len(a) != len(b) {
			t.Fatalf("%q: %d statements, variant %q: %d", src, len(a), variant, len(b))
		}
		for i := range a {
			if a[i].key != b[i].key {
				t.Fatalf("%q and its variant %q: keys\n %q\n %q", src, variant, a[i].key, b[i].key)
			}
			if !reflect.DeepEqual(a[i].stmt, b[i].stmt) {
				t.Fatalf("%q and its variant %q share key %q but parse to\n %#v\n %#v", src, variant, a[i].key, a[i].stmt, b[i].stmt)
			}
			if cs := c.m[a[i].key]; cs != nil && !reflect.DeepEqual(cs.stmt, a[i].stmt) {
				t.Fatalf("%q: cached\n %#v\nshape parse\n %#v", src, cs.stmt, a[i].stmt)
			}
		}
		for _, text := range []string{src, variant} {
			shaped, _ := shapeParse(text)
			plain, err := Parse(text)
			if err != nil {
				t.Fatalf("%q shape-parses but does not parse: %v", text, err)
			}
			for i := range shaped {
				fillLits(reflect.ValueOf(shaped[i].stmt), shaped[i].lits)
				if !reflect.DeepEqual(shaped[i].stmt, plain[i]) {
					t.Fatalf("%q: shape parse with its literals\n %#v\nParse\n %#v", text, shaped[i].stmt, plain[i])
				}
			}
		}
	})
}

// emptyTx is a DataTx over empty tables that accepts every write.
type emptyTx struct{}

func (emptyTx) ScanIDs(string) ([]storage.RowID, []types.Tuple, error) { return nil, nil, nil }
func (emptyTx) LookupIDs(string, []string, types.Tuple) ([]storage.RowID, []types.Tuple, error) {
	return nil, nil, nil
}
func (emptyTx) Insert(string, types.Tuple) (storage.RowID, error) { return 0, nil }
func (emptyTx) Update(string, storage.RowID, types.Tuple) error   { return nil }
func (emptyTx) Delete(string, storage.RowID) error                { return nil }
func (emptyTx) Entangle(*eq.Query) *eq.Answer                     { return &eq.Answer{Status: eq.NoPartner} }

// shaped is one statement parsed for its shape.
type shaped struct {
	key  string
	stmt Stmt
	lits []types.Value
}

// shapeParse parses every statement of src for its shape, as a Cache
// parses a shape it has not seen.
func shapeParse(src string) ([]shaped, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []shaped
	for p.more() {
		start, end := p.pos, p.stmtEnd()
		key, lits := shapeKey(nil, toks[start:end], nil)
		st, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if err := p.endStmt(); err != nil {
			return nil, err
		}
		out = append(out, shaped{string(key), st, lits})
	}
	return out, nil
}

// render writes toks back as text; with vary, every literal that would be
// a parameter gets another value of its kind.
func render(toks []token, vary bool) string {
	var parts []string
	shapeKey(nil, toks, nil) // marks the parameters
	for _, t := range toks {
		text := t.text
		switch {
		case t.kind == tokEOF:
			continue
		case vary && t.param > 0 && t.kind == tokNumber:
			text = "7"
			if t.text == "7" {
				text = "8"
			}
		case vary && t.param > 0:
			text += "v"
		}
		switch t.kind {
		case tokString:
			text = "'" + strings.ReplaceAll(text, "'", "''") + "'"
		case tokAtVar:
			text = "@" + text
		}
		parts = append(parts, text)
	}
	return strings.Join(parts, " ")
}

// fillLits gives every parameter literal v reaches its value from lits, as
// Parse would have parsed it.
func fillLits(v reflect.Value, lits []types.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return
		}
		if lit, ok := v.Interface().(*Lit); ok {
			if lit.Param > 0 {
				lit.Val, lit.Param = lits[lit.Param-1], 0
			}
			return
		}
		fillLits(v.Elem(), lits)
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Field(i).CanInterface() {
				fillLits(v.Field(i), lits)
			}
		}
	case reflect.Slice:
		for i := range v.Len() {
			fillLits(v.Index(i), lits)
		}
	}
}
