package types

import (
	"strconv"
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

// Compare orders tuples lexicographically.
func (t Tuple) Compare(o Tuple) int {
	n := len(t)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(o[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(o):
		return -1
	case len(t) > len(o):
		return 1
	}
	return 0
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

// Key returns a canonical string key usable as a map key; distinct tuples
// produce distinct keys (kind-tagged, length-prefixed encoding: a value is
// "kind:payload;", a string's payload "len:bytes"). It appends into one
// buffer instead of using fmt. Index buckets and the entangled-query
// evaluator key by Hash instead, which allocates nothing.
func (t Tuple) Key() string {
	var arr [64]byte
	b := arr[:0]
	for _, v := range t {
		k := v.foldedKind()
		b = strconv.AppendUint(b, uint64(k), 10)
		b = append(b, ':')
		switch k {
		case KindString:
			b = strconv.AppendInt(b, int64(len(v.s)), 10)
			b = append(b, ':')
			b = append(b, v.s...)
		case KindNull:
		default:
			b = strconv.AppendInt(b, v.i, 10)
		}
		b = append(b, ';')
	}
	return string(b)
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
