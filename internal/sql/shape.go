package sql

import (
	"fmt"
	"hash/maphash"
	"sync"

	"repro/internal/storage"
	"repro/internal/types"
)

// Statement shapes. A classical statement's text is a shape and its
// parameters: the lexer keys the statement by its tokens with every
// literal a typed slot (shapeKey), and the literals' values are the
// execution's. A Cache maps a shape to its compiled statement — the
// statement parsed once, its eq query and join plan with parameters where
// the literals and session variables were — so an execution whose shape
// is cached lexes, looks up, binds its parameters and grounds: it neither
// parses nor compiles nor plans.
//
// A compiled statement holds while the catalog's DDL epoch does: a plan is
// a pure function of the query's shape and the declared indexes (eq
// "Two-phase statistics-free join planner"), and CREATE TABLE and CREATE
// INDEX move the epoch. Whatever else compilation decides from a value —
// a string read as a date, arithmetic over constants, a NULL — it decides
// from the value's kind, which each execution checks (grounder.bind).

// maxShapes bounds a Cache: past it, an insert evicts a shape at random.
const maxShapes = 1024

// doorkeeper is the size of a Cache's table of shapes seen once.
const doorkeeper = 4096

// Cache is a bounded map from a classical statement's shape key to the
// statement compiled against one catalog. A shape enters it on its second
// sighting: seen holds the hash of each shape seen once (one per slot,
// the latest wins), and a first sighting compiles into the executing
// statement's pooled memory. So a statement whose shape never repeats
// costs no cache memory and evicts nothing. Safe for concurrent use.
type Cache struct {
	cat  *storage.Catalog
	mu   sync.Mutex
	m    map[string]*compiled
	seen [doorkeeper]uint64
}

// NewCache returns an empty cache for statements over cat.
func NewCache(cat *storage.Catalog) *Cache {
	return &Cache{cat: cat, m: make(map[string]*compiled)}
}

var keySeed = maphash.MakeSeed()

// get returns the compiled statement of a shape, or nil and whether the
// shape was seen before: it is to be cached.
func (c *Cache) get(key []byte) (cs *compiled, admit bool) {
	h := maphash.Bytes(keySeed, key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if cs = c.m[string(key)]; cs == nil {
		slot := &c.seen[h%doorkeeper]
		admit, *slot = *slot == h, h
	}
	return cs, admit
}

// lookup returns the compiled statement of a shape, or nil.
func (c *Cache) lookup(key string) *compiled {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[key]
}

func (c *Cache) put(cs *compiled) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[cs.key]; !ok && len(c.m) >= maxShapes {
		for k := range c.m {
			delete(c.m, k)
			break
		}
	}
	c.m[cs.key] = cs
}

// Statement is one statement of a script parsed through a Cache. A
// classical SELECT, INSERT, UPDATE or DELETE is parsed for its shape: its
// literals are parameters whose values lits holds. Any other statement is
// parsed as Parse parses it.
type Statement struct {
	Stmt  Stmt
	cache *Cache
	shape bool
	key   string        // the shape key, when cs is or is to be cached
	lits  []types.Value // the literal parameters' values
	cs    *compiled     // the shape's compiled statement, when cached
}

// Parse parses a script into statements as the package-level Parse does,
// except that a classical statement whose shape the cache holds is not
// parsed again.
func (c *Cache) Parse(script string) ([]Statement, error) {
	toks, err := lex(script)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []Statement
	var lits []types.Value
	var buf [256]byte
	for p.more() {
		st := Statement{cache: c}
		if t := p.peek(); t.isKeyword("SELECT") || t.isKeyword("INSERT") || t.isKeyword("UPDATE") || t.isKeyword("DELETE") {
			start, end, n := p.pos, p.stmtEnd(), len(lits)
			var key []byte
			var admit bool
			key, lits = shapeKey(buf[:0], toks[start:end], lits)
			st.shape, st.lits = true, lits[n:len(lits):len(lits)]
			switch st.cs, admit = c.get(key); {
			case st.cs != nil:
				st.Stmt, st.key = st.cs.stmt, st.cs.key
				p.pos = end
			case admit:
				st.key = string(key)
				rebase(st.key, toks[start:end])
			}
		}
		if st.Stmt == nil {
			start := p.pos
			if st.Stmt, err = p.parseStmt(); err != nil {
				return nil, err
			}
			if _, ok := st.Stmt.(*EntangledSelectStmt); ok && st.shape {
				// Not a classical statement: it compiles with its
				// constants in place, so it parses with them.
				for i := start; i < p.pos; i++ {
					toks[i].param = 0
				}
				p.pos, st = start, Statement{cache: c}
				if st.Stmt, err = p.parseStmt(); err != nil {
					return nil, err
				}
			}
		}
		if err := p.endStmt(); err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// Run executes a statement parsed by a Cache. A classical one runs its
// shape's compiled statement with its parameters bound: the cached one
// when the catalog's epoch and the parameters' kinds are what it was
// compiled for, else a fresh compilation, which then replaces it in the
// cache (on a shape's first sighting, none is cached: the compilation
// lives in pooled memory). Any other statement runs as Exec runs it.
func (s *Session) Run(tx DataTx, st *Statement) (*Result, error) {
	s.cat = st.cache.cat
	if !st.shape {
		return s.Exec(tx, nil, st.Stmt)
	}
	g := s.grounder(tx)
	defer g.release()
	epoch := st.cache.cat.Epoch()
	if st.key != "" && (st.cs == nil || st.cs.epoch != epoch) {
		// Another execution, or an earlier statement of the script, may
		// have compiled the shape since it was parsed.
		st.cs = st.cache.lookup(st.key)
	}
	if cs := st.cs; cs != nil && cs.epoch == epoch {
		if ok, err := g.bind(cs, st.lits); err != nil {
			return nil, err
		} else if ok {
			return g.run(cs, g.params)
		}
	}
	cs := &g.cs
	if st.key != "" {
		cs = &compiled{key: st.key, epoch: epoch}
	}
	if err := g.compile(cs, st.Stmt, st.lits, true); err != nil {
		return nil, err
	}
	if st.key != "" {
		st.cache.put(cs)
		st.cs = cs
	}
	ok, err := g.bind(cs, st.lits)
	if err == nil && !ok { // a compilation binds the values it was compiled from
		err = fmt.Errorf("sql: %T does not bind the parameters it was compiled with", st.Stmt)
	}
	if err != nil {
		return nil, err
	}
	return g.run(cs, g.params)
}
