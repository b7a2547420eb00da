// Package shard is the placement layer of the partitioned engine: a
// versioned map from routing keys (the paper's user names — the first
// quoted literal of a submitted script) to the shard, and so the
// youtopia-serve process, that owns them. The map is deliberately separate
// from the storage engine it routes to (EMBANKS-style layering): engines
// know nothing about placement, servers consult it to forward or
// coordinate, and clients fetch it to route directly.
//
// Placement is deterministic hash placement (FNV-1a mod shards) with an
// optional override table that pins chosen keys to a shard.
package shard

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"
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
