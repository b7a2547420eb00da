package eq

// DisjointSets is a union-find over the integers 0..n-1 — the one
// connected-components primitive behind the solver's decomposition, an
// evaluation round's entanglement components, and the engine's end-of-run
// commit groups.
type DisjointSets []int

// NewDisjointSets returns n singleton sets.
func NewDisjointSets(n int) DisjointSets {
	d := make(DisjointSets, n)
	for i := range d {
		d[i] = i
	}
	return d
}

// Find returns the representative of x's set, compressing the path.
func (d DisjointSets) Find(x int) int {
	if d[x] != x {
		d[x] = d.Find(d[x])
	}
	return d[x]
}

// Union merges the sets of a and b.
func (d DisjointSets) Union(a, b int) { d[d.Find(b)] = d.Find(a) }

// Sets returns the partition ordered by each set's smallest member, members
// ascending — a pure function of the unions performed, so callers that feed
// it submission-ordered indices get submission-ordered components.
func (d DisjointSets) Sets() [][]int {
	at := make([]int, len(d)) // root -> 1 + position in out
	var out [][]int
	for i := range d {
		r := d.Find(i)
		if at[r] == 0 {
			out = append(out, nil)
			at[r] = len(out)
		}
		out[at[r]-1] = append(out[at[r]-1], i)
	}
	return out
}
