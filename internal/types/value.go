// Package types defines the value, tuple, and schema primitives shared by
// every layer of the engine: the storage heap, the write-ahead log, the
// lock manager's object identifiers, the entangled-query evaluator, and the
// SQL executor.
//
// Values are a small tagged union (NULL, 64-bit integer, string, boolean,
// date). Dates are stored as days since the Unix epoch so that arithmetic
// like the paper's
//
//	SET @StayLength = '2011-05-06' - @ArrivalDay
//
// is plain integer subtraction.
package types

import (
	"fmt"
	"hash/maphash"
	"strconv"
	"time"
)

// Kind enumerates the dynamic type of a Value.
type Kind uint8

// Value kinds. KindNull is the zero value so that a zero Value is NULL.
const (
	KindNull Kind = iota
	KindInt
	KindString
	KindBool
	KindDate
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOL"
	case KindDate:
		return "DATE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is an immutable SQL value. The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64 // int, bool (0/1), date (days since epoch)
	s    string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Str returns a string value.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Date returns a date value from days since the Unix epoch.
func Date(daysSinceEpoch int64) Value { return Value{kind: KindDate, i: daysSinceEpoch} }

// DateFromString parses a YYYY-MM-DD date into a date value.
func DateFromString(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return Null(), fmt.Errorf("types: bad date %q: %w", s, err)
	}
	return Date(t.Unix() / 86400), nil
}

// MustDate is DateFromString that panics on malformed input; for tests and
// literals known at compile time.
func MustDate(s string) Value {
	v, err := DateFromString(s)
	if err != nil {
		panic(err)
	}
	return v
}

// Kind reports the dynamic type of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int64 returns the integer payload. It is valid for KindInt and KindDate;
// for other kinds it returns 0.
func (v Value) Int64() int64 {
	if v.kind == KindInt || v.kind == KindDate {
		return v.i
	}
	return 0
}

// Str64 returns the string payload (empty unless KindString).
func (v Value) Str64() string {
	if v.kind == KindString {
		return v.s
	}
	return ""
}

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindString:
		return v.s
	case KindBool:
		if v.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindDate:
		return time.Unix(v.i*86400, 0).UTC().Format("2006-01-02")
	default:
		return fmt.Sprintf("<bad kind %d>", v.kind)
	}
}

// Equal reports deep equality. NULL equals NULL (this is the identity used
// by unification in the entangled-query evaluator, not three-valued SQL
// comparison — use Compare for SQL semantics).
func (v Value) Equal(o Value) bool {
	// Int and Date interoperate: subtraction of dates yields ints, and
	// workloads compare them freely.
	if v.foldedKind() != o.foldedKind() {
		return false
	}
	if v.kind == KindString {
		return v.s == o.s
	}
	return v.i == o.i
}

// foldedKind is the kind Equal, Compare and Hash go by: Date folds
// into Int.
func (v Value) foldedKind() Kind {
	if v.kind == KindDate {
		return KindInt
	}
	return v.kind
}

// HashSeed starts a Value.Hash chain.
const HashSeed uint64 = 14695981039346656037

// stringSeed keys string hashing; hashes are per process, for in-memory use.
var stringSeed = maphash.MakeSeed()

// Hash folds v into the running hash h and returns the result. Values that
// are Equal fold identically (Date hashes as Int; a NULL's payload is 0),
// and it allocates nothing, so hash partitions key rows through it.
func (v Value) Hash(h uint64) uint64 {
	const prime = 1099511628211 // FNV-1a
	x := uint64(v.i)
	if v.kind == KindString {
		x = maphash.String(stringSeed, v.s)
	}
	return ((h^uint64(v.foldedKind()))*prime ^ x) * prime
}

// Compare orders two values: -1, 0, +1. NULL sorts before everything.
// Mixed-kind comparisons order by kind except for the Int/Date pairing,
// which compares numerically.
func (v Value) Compare(o Value) int {
	vk, ok := v.foldedKind(), o.foldedKind()
	if vk != ok {
		if vk < ok {
			return -1
		}
		return 1
	}
	switch vk {
	case KindNull:
		return 0
	case KindString:
		switch {
		case v.s < o.s:
			return -1
		case v.s > o.s:
			return 1
		}
		return 0
	default:
		switch {
		case v.i < o.i:
			return -1
		case v.i > o.i:
			return 1
		}
		return 0
	}
}

// Sub subtracts two numeric (int or date) values; date − date yields int
// (number of days), mirroring the paper's @StayLength computation.
func (v Value) Sub(o Value) (Value, error) {
	if (v.kind == KindInt || v.kind == KindDate) && (o.kind == KindInt || o.kind == KindDate) {
		return Int(v.i - o.i), nil
	}
	return Null(), fmt.Errorf("types: cannot subtract %s from %s", o.kind, v.kind)
}

// Add adds two values; date + int yields date.
func (v Value) Add(o Value) (Value, error) {
	switch {
	case v.kind == KindInt && o.kind == KindInt:
		return Int(v.i + o.i), nil
	case v.kind == KindDate && o.kind == KindInt:
		return Date(v.i + o.i), nil
	case v.kind == KindInt && o.kind == KindDate:
		return Date(v.i + o.i), nil
	case v.kind == KindString && o.kind == KindString:
		return Str(v.s + o.s), nil
	}
	return Null(), fmt.Errorf("types: cannot add %s and %s", o.kind, v.kind)
}
