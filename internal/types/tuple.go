package types

import (
	"strings"
)

// Tuple is an ordered list of values — one table row, one ANSWER-relation
// atom's arguments, or one entangled-query answer.
type Tuple []Value

// Clone returns an independent copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports element-wise equality.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Hash returns a 64-bit hash of the tuple consistent with Equal, stable
// within one process (see Value.Hash).
func (t Tuple) Hash() uint64 {
	h := HashSeed
	for _, v := range t {
		h = v.Hash(h)
	}
	return h
}
