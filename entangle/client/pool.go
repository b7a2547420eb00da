package client

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/shard"
)

// Pool is a fixed-size set of client connections for concurrent callers.
// One Client already multiplexes concurrent requests over one TCP
// connection, but every frame still crosses one socket and one flusher;
// a Pool spreads callers across connections round-robin so the server's
// per-connection dispatch (and the kernel's socket locks) stop being the
// ceiling.
//
// Handles and interactive sessions are connection-scoped server-side, so
// stateful objects stay bound to the Client that created them — Get hands
// out a Client when a caller needs that affinity, and the convenience
// methods (Exec, SubmitScript, ...) pick a connection per call, which is
// safe precisely because each returned Handle/Call keeps its connection.
// A sharded Pool (DialShardedPool) additionally knows the deployment's
// placement map: conns[i] is then the connection to the server owning
// shard i, Route picks the connection by a script's routing key, and
// SubmitScript routes automatically — the home shard answers without a
// server-side forwarding hop. A down home connection falls back to any
// healthy member, whose server forwards on the client's behalf.
type Pool struct {
	conns     []*Client
	next      atomic.Uint64
	placement *shard.Map // nil for an unsharded pool
}

// DialPool opens size connections to addr with default options.
func DialPool(addr string, size int) (*Pool, error) {
	return DialPoolOptions(addr, size, Options{})
}

// DialPoolOptions opens size connections to addr.
func DialPoolOptions(addr string, size int, opts Options) (*Pool, error) {
	if size <= 0 {
		return nil, errors.New("client: pool size must be positive")
	}
	p := &Pool{conns: make([]*Client, 0, size)}
	for i := 0; i < size; i++ {
		c, err := DialOptions(addr, opts)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("client: pool conn %d: %w", i, err)
		}
		p.conns = append(p.conns, c)
	}
	return p, nil
}

// DialShardedPool joins a sharded deployment: it fetches the placement
// map from addr (any member serves it) and opens one connection per
// shard, indexed by shard id. Against an unsharded server the placement
// map has one node and the pool degenerates to a single connection.
func DialShardedPool(addr string, opts Options) (*Pool, error) {
	boot, err := DialOptions(addr, opts)
	if err != nil {
		return nil, err
	}
	m, err := boot.Placement()
	if err != nil {
		boot.Close()
		return nil, fmt.Errorf("client: fetch placement: %w", err)
	}
	if len(m.Nodes) == 0 {
		boot.Close()
		return nil, errors.New("client: placement map names no nodes")
	}
	p := &Pool{conns: make([]*Client, 0, len(m.Nodes)), placement: m}
	reused := false
	for i, node := range m.Nodes {
		if node == addr && !reused {
			p.conns = append(p.conns, boot)
			reused = true
			continue
		}
		c, err := DialOptions(node, opts)
		if err != nil {
			if !reused {
				boot.Close()
			}
			p.Close()
			return nil, fmt.Errorf("client: shard %d (%s): %w", i, node, err)
		}
		p.conns = append(p.conns, c)
	}
	if !reused {
		boot.Close()
	}
	return p, nil
}

// Placement returns the pool's placement map (nil when unsharded).
func (p *Pool) Placement() *shard.Map { return p.placement }

// GetShard returns the connection owning shard s when it is healthy —
// home-shard affinity beats round-robin, because the home shard answers
// without a forwarding hop — and only falls back to the round-robin pick
// (which itself skips dead clients) when the home connection is down.
func (p *Pool) GetShard(s int) *Client {
	if n := len(p.conns); n > 0 {
		if c := p.conns[((s%n)+n)%n]; c.Healthy() {
			return c
		}
	}
	return p.Get()
}

// Route returns the connection for a script's home shard: the routing key
// (first quoted literal — the acting user) hashes to a shard, and the
// pool prefers that shard's connection. Unsharded pools round-robin.
func (p *Pool) Route(script string) *Client {
	if p.placement == nil || p.placement.Shards <= 1 {
		return p.Get()
	}
	return p.GetShard(p.placement.Home(shard.RouteKey(script)))
}

// Get returns one pooled connection (round-robin), skipping clients whose
// connection is currently down — each dead client keeps redialing in the
// background, and Get routes around it until it heals. If every client is
// down the round-robin pick is returned anyway: its next call blocks on
// the reconnect rather than failing fast, which is the right behavior for
// a momentary full outage. The Client stays owned by the pool — do not
// Close it.
func (p *Pool) Get() *Client {
	n := uint64(len(p.conns))
	start := p.next.Add(1)
	for i := uint64(0); i < n; i++ {
		if c := p.conns[(start+i)%n]; c.Healthy() {
			return c
		}
	}
	return p.conns[start%n]
}

// Size reports the number of pooled connections.
func (p *Pool) Size() int { return len(p.conns) }

// Close closes every pooled connection; the first error wins.
func (p *Pool) Close() error {
	var first error
	for _, c := range p.conns {
		if c == nil {
			continue
		}
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Ping checks liveness over one pooled connection.
func (p *Pool) Ping() error { return p.Get().Ping() }

// ExecDDL runs DDL over one pooled connection — or, in a sharded pool,
// over every connection: each shard owns its own catalog copy, so schema
// must exist everywhere before sharded traffic can route.
func (p *Pool) ExecDDL(script string) error {
	if p.placement == nil || p.placement.Shards <= 1 {
		return p.Get().ExecDDL(script)
	}
	for i, c := range p.conns {
		if err := c.ExecDDL(script); err != nil {
			return fmt.Errorf("client: ddl on shard %d: %w", i, err)
		}
	}
	return nil
}

// Exec runs a classical script over one pooled connection (the routing
// key's home shard when the pool is sharded).
func (p *Pool) Exec(script string) (*Result, error) { return p.Route(script).Exec(script) }

// ExecAsync issues a pipelined Exec over one pooled connection.
func (p *Pool) ExecAsync(script string) *Call { return p.Get().ExecAsync(script) }

// Query runs a SELECT over one pooled connection.
func (p *Pool) Query(src string) (*Result, error) { return p.Get().Query(src) }

// QueryAsync issues a pipelined Query over one pooled connection.
func (p *Pool) QueryAsync(src string) *Call { return p.Get().QueryAsync(src) }

// SubmitScript submits a script over one pooled connection — the routing
// key's home shard when the pool is sharded, so the submission lands on
// the engine owning its data without a server-side forwarding hop. The
// returned Handle stays bound to that connection.
func (p *Pool) SubmitScript(script string) (*Handle, error) {
	return p.Route(script).SubmitScript(script)
}
