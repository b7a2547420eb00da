package core

import (
	"container/list"
	"sync"

	"repro/internal/eq"
	"repro/internal/storage"
	"repro/internal/txn"
)

// groundCache is the cross-round grounding cache (Options.GroundCache): a
// pending entangled query that was grounded in an earlier round is NOT
// re-grounded when nothing it reads has changed — the common case for the
// long-pending partner-less transactions of the Figure 6(b) sweep, whose
// re-grounding every round is the p-linear middle-tier cost the paper
// measures.
//
// Entries are keyed by query identity (the canonical {C} H ⇐ B rendering,
// so two members posing syntactically identical queries share one entry)
// and validated against the csnPrint fingerprint of every grounded table —
// the rule the round's bound-scan partitions follow too.
//
// Two cases must bypass or invalidate the cache:
//
//   - a committed write to any grounded table advances its LastCSN past the
//     fingerprint: lookup misses and the query re-grounds; the entry stays
//     until the store that follows replaces it;
//   - the posing transaction itself holds uncommitted writes on a grounded
//     table: its grounding view differs from the committed snapshot the
//     entry was computed against, so the lookup bypasses the cache (the
//     entry stays valid for other posers) and the store refuses to cache
//     the own-writes result.
//
// A store is also refused when printAt refuses a table's fingerprint.
type groundCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element // Value: *groundCacheEntry
	order   *list.List               // eviction order: least recently stored first
}

type groundCacheEntry struct {
	key        string
	prints     []csnPrint // the query's grounded (body) tables at grounding time
	groundings []*eq.Grounding
}

// defaultGroundCacheCap bounds the number of cached queries so an engine
// serving an unbounded stream of distinct queries cannot grow without
// limit; pending queries are re-grounded on eviction, never answered
// wrongly.
const defaultGroundCacheCap = 4096

func newGroundCache(capacity int) *groundCache {
	if capacity <= 0 {
		capacity = defaultGroundCacheCap
	}
	return &groundCache{cap: capacity, entries: make(map[string]*list.Element), order: list.New()}
}

// lookup returns the cached groundings for key when still current.
func (c *groundCache) lookup(key string, cat *storage.Catalog, poser *txn.Txn) ([]*eq.Grounding, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	var e *groundCacheEntry
	if ok {
		e = el.Value.(*groundCacheEntry)
	}
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	for _, p := range e.prints {
		if !p.current(cat) || poser != nil && poser.WroteTable(p.tbl.Name()) {
			return nil, false
		}
	}
	return e.groundings, true
}

// store records a freshly grounded result under key. snapCSN is the round
// snapshot the grounding ran against.
func (c *groundCache) store(key string, tables []string, snapCSN uint64, cat *storage.Catalog, poser *txn.Txn, groundings []*eq.Grounding) {
	e := &groundCacheEntry{key: key, prints: make([]csnPrint, len(tables)), groundings: groundings}
	for i, name := range tables {
		tbl, err := cat.Get(name)
		if err != nil || poser != nil && poser.WroteTable(name) {
			return
		}
		var ok bool
		if e.prints[i], ok = printAt(tbl, snapCSN); !ok {
			return
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// Replace the entry wholesale rather than mutating in place (lookup
		// reads the previous entry's fields after dropping the mutex), and
		// count the key as newly stored.
		el.Value = e
		c.order.MoveToBack(el)
		return
	}
	for len(c.entries) >= c.cap {
		delete(c.entries, c.order.Remove(c.order.Front()).(*groundCacheEntry).key)
	}
	c.entries[key] = c.order.PushBack(e)
}
