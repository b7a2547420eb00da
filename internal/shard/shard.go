// Package shard is the placement layer of the partitioned engine: a
// versioned map from routing keys (the paper's user names — the first
// quoted literal of a submitted script) to the shard, and so the
// youtopia-serve process, that owns them. The map is deliberately separate
// from the storage engine it routes to (EMBANKS-style layering): engines
// know nothing about placement, servers consult it to forward or
// coordinate, and clients fetch it to route directly.
//
// Placement is deterministic hash placement (FNV-1a mod shards) with an
// optional override table. The override table is how the social-graph-
// aware assignment plugs in: Colocate walks friendship edges and pins
// likely-entangled friends to the same shard, emitting only the keys whose
// hash shard would differ.
package shard

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/social"
)

// Map is one version of the placement: Nodes[i] serves shard i. A key's
// home shard is Overrides[key] when present, else hash(key) mod Shards.
// The zero Map (Shards == 0) means "not sharded"; Home then reports
// shard 0 so single-process callers need no special case.
type Map struct {
	Version   int            `json:"version"`
	Shards    int            `json:"shards"`
	Nodes     []string       `json:"nodes,omitempty"`
	Overrides map[string]int `json:"overrides,omitempty"`
}

// New builds a single-version hash placement over the given node
// addresses, one shard per node.
func New(nodes []string) *Map {
	return &Map{Version: 1, Shards: len(nodes), Nodes: append([]string(nil), nodes...)}
}

// Hash is the deterministic key hash every component agrees on (FNV-1a).
func Hash(key string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(key))
	return h.Sum32()
}

// Home returns the shard owning key.
func (m *Map) Home(key string) int {
	if m == nil || m.Shards <= 1 {
		return 0
	}
	if s, ok := m.Overrides[key]; ok && s >= 0 && s < m.Shards {
		return s
	}
	return int(Hash(key) % uint32(m.Shards))
}

// NodeFor returns the address serving key's home shard ("" when the map
// carries no node list).
func (m *Map) NodeFor(key string) string {
	if m == nil || len(m.Nodes) == 0 {
		return ""
	}
	return m.Nodes[m.Home(key)%len(m.Nodes)]
}

// Clone returns a deep copy (servers hand maps to concurrent readers).
func (m *Map) Clone() *Map {
	if m == nil {
		return nil
	}
	c := &Map{Version: m.Version, Shards: m.Shards, Nodes: append([]string(nil), m.Nodes...)}
	if m.Overrides != nil {
		c.Overrides = make(map[string]int, len(m.Overrides))
		for k, v := range m.Overrides {
			c.Overrides[k] = v
		}
	}
	return c
}

// Marshal renders the map as the JSON payload the placement op serves.
func (m *Map) Marshal() ([]byte, error) { return json.Marshal(m) }

// Unmarshal parses a placement payload.
func Unmarshal(raw []byte) (*Map, error) {
	var m Map
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("shard: bad placement payload: %w", err)
	}
	if m.Shards < 0 {
		return nil, fmt.Errorf("shard: negative shard count %d", m.Shards)
	}
	return &m, nil
}

// RouteKey extracts the routing key of a script: the first single-quoted
// SQL string literal (the paper's workload identifies the acting user by
// name in the first SELECT ... INTO ANSWER atom). A doubled single quote
// is the SQL escape and belongs to the literal. Scripts without a literal
// route to "" — hash shard of the empty string — so routing is total.
func RouteKey(script string) string {
	for i := 0; i < len(script); i++ {
		if script[i] != '\'' {
			continue
		}
		var b strings.Builder
		for j := i + 1; j < len(script); j++ {
			if script[j] != '\'' {
				b.WriteByte(script[j])
				continue
			}
			if j+1 < len(script) && script[j+1] == '\'' {
				b.WriteByte('\'')
				j++
				continue
			}
			return b.String()
		}
		return b.String() // unterminated literal: best effort
	}
	return ""
}

// Colocate computes placement overrides that pin friends to the same
// shard: likely-entangled pairs (graph edges) then resolve their group
// locally instead of across shards. The pass is greedy and deterministic —
// edges in ascending order, each unassigned endpoint joining its partner's
// shard (or both joining the less-loaded shard) subject to a per-shard
// capacity of ceil(n/shards * slack). Returned overrides include only keys
// whose hash shard differs from the assignment, keeping the table small.
func Colocate(g *social.Graph, name func(int) string, shards int) map[string]int {
	if g == nil || shards <= 1 {
		return nil
	}
	n := g.N()
	cap := (n + shards - 1) / shards
	cap += cap / 4 // 25% slack before a shard refuses new members
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	load := make([]int, shards)
	place := func(u, s int) bool {
		if load[s] >= cap {
			return false
		}
		assign[u] = s
		load[s]++
		return true
	}
	leastLoaded := func() int {
		best := 0
		for s := 1; s < shards; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		return best
	}
	for _, e := range g.Edges() {
		u, v := e[0], e[1]
		switch {
		case assign[u] >= 0 && assign[v] < 0:
			place(v, assign[u])
		case assign[v] >= 0 && assign[u] < 0:
			place(u, assign[v])
		case assign[u] < 0 && assign[v] < 0:
			s := leastLoaded()
			if place(u, s) {
				place(v, s)
			}
		}
	}
	for u := range assign {
		if assign[u] < 0 {
			place(u, leastLoaded())
		}
	}
	// Refinement sweeps (deterministic label propagation): move a node to
	// the shard holding most of its friends when that strictly increases
	// its local-edge count and the target shard has room. Hubs settle where
	// their neighbourhoods are, fixing the edges the greedy pass cut.
	for sweep := 0; sweep < 4; sweep++ {
		moved := false
		for u := 0; u < n; u++ {
			counts := make([]int, shards)
			for _, v := range g.Friends(u) {
				counts[assign[v]]++
			}
			best := assign[u]
			for s := 0; s < shards; s++ {
				if counts[s] > counts[best] {
					best = s
				}
			}
			if best != assign[u] && load[best] < cap {
				load[assign[u]]--
				load[best]++
				assign[u] = best
				moved = true
			}
		}
		if !moved {
			break
		}
	}
	over := make(map[string]int)
	for u, s := range assign {
		key := name(u)
		if int(Hash(key)%uint32(shards)) != s {
			over[key] = s
		}
	}
	if len(over) == 0 {
		return nil
	}
	return over
}
