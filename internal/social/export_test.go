package social

// Friends returns u's friend list (sorted, no duplicates by construction).
func (g *Graph) Friends(u int) []int { return g.adj[u] }

// Degree returns u's number of friends.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }
