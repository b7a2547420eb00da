package storage

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// Catalog is the set of tables in a database. Safe for concurrent use.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table // keyed by lower-case name
	epoch  atomic.Uint64     // DDL count: Create, CreateIndex
}

// Epoch counts the catalog's DDL: creating a table and declaring an index
// each add one, after the change is visible. Whatever was compiled or
// planned from the catalog at one epoch holds until the next.
func (c *Catalog) Epoch() uint64 { return c.epoch.Load() }

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

func canonical(name string) string {
	// Table names are case-insensitive, as in MySQL's default collation for
	// the workloads in the paper.
	b := []byte(name)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// Create adds a new table, failing if the name is taken.
func (c *Catalog) Create(name string, schema *types.Schema) (*Table, error) {
	key := canonical(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[key]; ok {
		return nil, fmt.Errorf("storage: table %s already exists", name)
	}
	t := NewTable(name, schema)
	t.epoch = &c.epoch
	c.tables[key] = t
	c.epoch.Add(1)
	return t, nil
}

// Get returns the named table or an error.
func (c *Catalog) Get(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[canonical(name)]
	if !ok {
		return nil, fmt.Errorf("storage: no such table %s", name)
	}
	return t, nil
}

// Has reports whether the named table exists.
func (c *Catalog) Has(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.tables[canonical(name)]
	return ok
}

// Names returns all table names in sorted order.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Name())
	}
	sort.Strings(out)
	return out
}
