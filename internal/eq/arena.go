package eq

import (
	"slices"

	"repro/internal/types"
)

// arena is the memory an Evaluator hands out for one round's groundings:
// slabs of values, atoms, grounding structs and grounding pointers. reset
// rewinds every slab to its start, so the next round overwrites the memory
// the previous round's groundings point into — the arena lifetime rule:
// groundings are valid until the next round.
type arena struct {
	vals  []types.Value
	atoms []GroundAtom
	gs    []Grounding
	ptrs  []*Grounding
}

func (a *arena) reset() {
	a.vals, a.atoms, a.gs, a.ptrs = a.vals[:0], a.atoms[:0], a.gs[:0], a.ptrs[:0]
}

// minSlab is the capacity of a slab's first allocation, in elements.
const minSlab = 32

// take returns the next n elements of *slab. A slab that is full is
// replaced by one twice its size, not grown in place: the elements already
// handed out stay where they are, and after reset the largest slab is the
// one reused.
func take[T any](slab *[]T, n int) []T {
	s := *slab
	if len(s)+n > cap(s) {
		s = make([]T, 0, max(2*cap(s), n, minSlab))
	}
	*slab = s[:len(s)+n]
	return s[len(s) : len(s)+n : len(s)+n]
}

// zeroed returns s resized to n zero elements, reusing its capacity.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// resized returns s with length n, keeping the memory its elements hold
// for reuse (zeroed clears them).
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		grown := make([]T, n)
		copy(grown, s[:cap(s)])
		return grown
	}
	return s[:n]
}

// grounding copies a grounding into the arena: hp holds the head then the
// postcondition arguments, vals the slot valuation. One value chunk backs
// the head and postcondition arguments and Vals; one atom chunk backs Head
// and Post.
func (a *arena) grounding(plan *joinPlan, hp, vals []types.Value) *Grounding {
	vs := take(&a.vals, len(hp)+len(vals))
	copy(vs, hp)
	copy(vs[len(hp):], vals)
	nh, np := len(plan.head), len(plan.post)
	as := take(&a.atoms, nh+np)
	k, off := 0, 0
	for _, sas := range [2][]slotAtom{plan.head, plan.post} {
		for i := range sas {
			n := len(sas[i].args)
			as[k] = GroundAtom{Rel: sas[i].atom.Rel, Args: vs[off : off+n : off+n]}
			k++
			off += n
		}
	}
	g := &take(&a.gs, 1)[0]
	*g = Grounding{Head: as[:nh:nh], Vals: vs[len(hp):], Vars: plan.vars}
	if np > 0 {
		g.Post = as[nh:]
	}
	return g
}

// pointers copies gs into the arena's pointer slab.
func (a *arena) pointers(gs []*Grounding) []*Grounding {
	out := take(&a.ptrs, len(gs))
	copy(out, gs)
	return out
}

// CloneGroundings deep-copies groundings out of an Evaluator's arena into
// memory of their own, which later rounds do not reuse. Nil stays nil.
func CloneGroundings(gs []*Grounding) []*Grounding {
	if gs == nil {
		return nil
	}
	out := make([]*Grounding, len(gs))
	for i, g := range gs {
		out[i] = &Grounding{Head: cloneAtoms(g.Head), Post: cloneAtoms(g.Post), Vals: slices.Clone(g.Vals), Vars: g.Vars}
	}
	return out
}

// cloneAtoms deep-copies ground atoms into memory of their own.
func cloneAtoms(as []GroundAtom) []GroundAtom {
	if as == nil {
		return nil
	}
	out := make([]GroundAtom, len(as))
	for i, a := range as {
		out[i] = GroundAtom{Rel: a.Rel, Args: a.Args.Clone()}
	}
	return out
}

// hashIndex maps 64-bit hashes to the dense ids 0, 1, ... of entries the
// caller stores; the caller's equality test settles collisions. reset is
// O(1): slots carry the generation that wrote them, and a slot of an older
// generation reads as empty.
type hashIndex struct {
	slots  []uint64 // gen<<32 | id+1, open addressing with linear probing
	hashes []uint64 // by id
	gen    uint32
}

// reset forgets every entry.
func (t *hashIndex) reset() {
	t.hashes = t.hashes[:0]
	t.gen++
	if t.gen == 0 { // wrapped: old slots could read as current
		clear(t.slots)
		t.gen = 1
	}
}

// lookup returns the id of an entry with hash h for which same holds, or
// -1.
func (t *hashIndex) lookup(h uint64, same func(id int32) bool) int32 {
	if len(t.slots) == 0 {
		return -1
	}
	mask := uint64(len(t.slots) - 1)
	for i := spread(h) & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if uint32(s>>32) != t.gen {
			return -1
		}
		id := int32(uint32(s)) - 1
		if t.hashes[id] == h && same(id) {
			return id
		}
	}
}

// add registers a new entry with hash h and returns its id.
func (t *hashIndex) add(h uint64) int32 {
	id := int32(len(t.hashes))
	t.hashes = append(t.hashes, h)
	if t.gen == 0 {
		t.gen = 1
	}
	if 2*len(t.hashes) > len(t.slots) {
		t.slots = make([]uint64, max(2*len(t.slots), 16))
		for j, hj := range t.hashes {
			t.place(hj, int32(j))
		}
		return id
	}
	t.place(h, id)
	return id
}

func (t *hashIndex) place(h uint64, id int32) {
	mask := uint64(len(t.slots) - 1)
	i := spread(h) & mask
	for uint32(t.slots[i]>>32) == t.gen {
		i = (i + 1) & mask
	}
	t.slots[i] = uint64(t.gen)<<32 | uint64(uint32(id+1))
}

// spread moves the well-mixed high bits of h down to where the slot mask
// reads (Fibonacci hashing).
func spread(h uint64) uint64 { return (h * 0x9e3779b97f4a7c15) >> 32 }
