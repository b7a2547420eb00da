// Package social generates the synthetic social network that stands in for
// the Slashdot dataset (soc-Slashdot0902) used by the paper's workload
// generator — see DESIGN.md §3 for the substitution rationale. The paper
// only uses the friendship relation to pick coordination partners, so a
// seeded preferential-attachment graph with the same heavy-tailed degree
// shape preserves the workload's behaviour.
package social

import (
	"fmt"
	"math/rand"
	"sort"
)

// Graph is an undirected friendship graph over users 0..N-1.
type Graph struct {
	n   int
	adj [][]int
}

// Generate builds a preferential-attachment (Barabási–Albert style) graph:
// each new node attaches to m existing nodes chosen proportionally to
// degree. Deterministic for a given seed.
func Generate(n, m int, seed int64) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("social: need at least 2 users, got %d", n)
	}
	if m < 1 {
		return nil, fmt.Errorf("social: attachment degree must be >= 1, got %d", m)
	}
	if m >= n {
		m = n - 1
	}
	rng := rand.New(rand.NewSource(seed))
	g := &Graph{n: n, adj: make([][]int, n)}
	// repeated holds node ids once per incident edge endpoint — sampling
	// uniformly from it is degree-proportional sampling.
	var repeated []int

	// Seed clique over the first m+1 nodes.
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			g.addEdge(u, v)
			repeated = append(repeated, u, v)
		}
	}
	for u := m + 1; u < n; u++ {
		chosen := make(map[int]bool, m)
		for len(chosen) < m {
			v := repeated[rng.Intn(len(repeated))]
			if v != u && !chosen[v] {
				chosen[v] = true
			}
		}
		picks := make([]int, 0, len(chosen))
		for v := range chosen {
			picks = append(picks, v)
		}
		sort.Ints(picks) // map order must not leak into the edge sequence
		for _, v := range picks {
			g.addEdge(u, v)
			repeated = append(repeated, u, v)
		}
	}
	for u := range g.adj {
		sort.Ints(g.adj[u])
	}
	return g, nil
}

func (g *Graph) addEdge(u, v int) {
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
}

// N returns the number of users.
func (g *Graph) N() int { return g.n }

// Edges returns every undirected edge once, as ordered pairs (u < v).
func (g *Graph) Edges() [][2]int {
	var out [][2]int
	for u := range g.adj {
		for _, v := range g.adj[u] {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

// DegreeHistogram maps degree to count, for verifying the heavy tail.
func (g *Graph) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for u := range g.adj {
		h[len(g.adj[u])]++
	}
	return h
}

// MaxDegree returns the largest degree (the hubs a heavy-tailed graph must
// have).
func (g *Graph) MaxDegree() int {
	max := 0
	for u := range g.adj {
		if len(g.adj[u]) > max {
			max = len(g.adj[u])
		}
	}
	return max
}
