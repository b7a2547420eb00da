package types

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestTupleEqualCloneString(t *testing.T) {
	a := Tuple{Str("Mickey"), Int(122), MustDate("2011-05-03")}
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone must equal original")
	}
	b[1] = Int(123)
	if a.Equal(b) {
		t.Fatal("mutating clone must not affect original")
	}
	if a[1].Int64() != 122 {
		t.Fatal("original mutated by clone edit")
	}
	if got := a.String(); got != "(Mickey, 122, 2011-05-03)" {
		t.Errorf("String() = %q", got)
	}
	if a.Equal(Tuple{Str("Mickey")}) {
		t.Error("different arities must not be equal")
	}
}

func TestTupleCompare(t *testing.T) {
	a := Tuple{Int(1), Str("a")}
	b := Tuple{Int(1), Str("b")}
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Error("lexicographic compare broken")
	}
	if (Tuple{Int(1)}).Compare(Tuple{Int(1), Int(2)}) != -1 {
		t.Error("prefix must sort before extension")
	}
}

func TestTupleKeyDistinguishes(t *testing.T) {
	cases := [][2]Tuple{
		{{Int(1), Str("2")}, {Str("1"), Int(2)}},
		{{Str("ab"), Str("c")}, {Str("a"), Str("bc")}},
		{{Null()}, {Int(0)}},
		{{Str("")}, {Null()}},
		{{Int(1)}, {Int(1), Int(1)}},
	}
	for _, c := range cases {
		if c[0].Key() == c[1].Key() {
			t.Errorf("Key collision between %v and %v", c[0], c[1])
		}
	}
	// Int/date pairing must agree with Equal.
	if (Tuple{Int(7)}).Key() != (Tuple{Date(7)}).Key() {
		t.Error("Int and Date with same payload must share a key (they are Equal)")
	}
}

// fmtKey is Tuple.Key's fmt-built rendering, kept as the reference the
// append-built key must reproduce byte for byte.
func fmtKey(t Tuple) string {
	var b strings.Builder
	for _, v := range t {
		k := v.Kind()
		if k == KindDate {
			k = KindInt
		}
		fmt.Fprintf(&b, "%d:", uint8(k))
		switch k {
		case KindString:
			fmt.Fprintf(&b, "%d:%s;", len(v.Str64()), v.Str64())
		case KindNull:
			b.WriteByte(';')
		default:
			fmt.Fprintf(&b, "%d;", v.i)
		}
	}
	return b.String()
}

// TestTupleKeyMatchesFmtRendering: for random tuples over every kind —
// Int/Date pairs, NULL, negative and extreme ints, strings holding the
// encoding's own ':' and ';' separators, strings past the stack buffer —
// Key equals the fmt rendering it replaced.
func TestTupleKeyMatchesFmtRendering(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	strs := []string{"", ":", ";", "a:b;c", "1:;", "LA", strings.Repeat("x;", 40)}
	randVal := func() Value {
		switch rng.Intn(6) {
		case 0:
			return Int(rng.Int63() - rng.Int63())
		case 1:
			return Date(int64(rng.Intn(20000)) - 5000)
		case 2:
			return Null()
		case 3:
			return Bool(rng.Intn(2) == 0)
		case 4:
			return Int([]int64{0, -1, math.MinInt64, math.MaxInt64}[rng.Intn(4)])
		default:
			return Str(strs[rng.Intn(len(strs))])
		}
	}
	for i := 0; i < 5000; i++ {
		tu := make(Tuple, rng.Intn(5))
		for j := range tu {
			tu[j] = randVal()
		}
		if got, want := tu.Key(), fmtKey(tu); got != want {
			t.Fatalf("Key(%v) = %q, fmt rendering %q", tu, got, want)
		}
	}
	if (Tuple{Date(7), Null()}).Key() != (Tuple{Int(7), Null()}).Key() {
		t.Error("Date must fold into Int")
	}
}

func TestTupleHashConsistentWithEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randVal := func() Value {
		switch rng.Intn(4) {
		case 0:
			return Int(int64(rng.Intn(10)))
		case 1:
			return Str(string(rune('a' + rng.Intn(5))))
		case 2:
			return Null()
		default:
			return Date(int64(rng.Intn(10)))
		}
	}
	for i := 0; i < 2000; i++ {
		n := rng.Intn(4)
		a := make(Tuple, n)
		b := make(Tuple, n)
		for j := 0; j < n; j++ {
			a[j] = randVal()
			b[j] = randVal()
		}
		if a.Equal(b) && a.Hash() != b.Hash() {
			t.Fatalf("equal tuples with different hashes: %v %v", a, b)
		}
		if a.Key() == b.Key() && !a.Equal(b) {
			t.Fatalf("key collision for unequal tuples: %v %v", a, b)
		}
	}
}

func TestTupleEncodeRoundTripQuick(t *testing.T) {
	f := func(is []int64, ss []string) bool {
		tu := make(Tuple, 0, len(is)+len(ss)+1)
		for _, i := range is {
			tu = append(tu, Int(i))
		}
		for _, s := range ss {
			tu = append(tu, Str(s))
		}
		tu = append(tu, Null())
		buf := EncodeTuple(nil, tu)
		got, n, err := DecodeTuple(buf)
		return err == nil && n == len(buf) && got.Equal(tu)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeTupleErrors(t *testing.T) {
	if _, _, err := DecodeTuple(nil); err == nil {
		t.Error("empty buffer should error")
	}
	buf := EncodeTuple(nil, Tuple{Int(1), Str("abc")})
	if _, _, err := DecodeTuple(buf[:len(buf)-2]); err == nil {
		t.Error("truncated tuple should error")
	}
}

func TestSchema(t *testing.T) {
	s := NewSchema(
		Column{Name: "fno", Type: KindInt},
		Column{Name: "fdate", Type: KindDate},
		Column{Name: "dest", Type: KindString},
	)
	if s.Arity() != 3 {
		t.Fatalf("arity = %d", s.Arity())
	}
	if s.Index("FDATE") != 1 {
		t.Error("column lookup must be case-insensitive")
	}
	if s.Index("nope") != -1 || s.Has("nope") {
		t.Error("missing column must report -1 / false")
	}
	ok := Tuple{Int(122), MustDate("2011-05-03"), Str("LA")}
	if err := s.Validate(ok); err != nil {
		t.Errorf("valid tuple rejected: %v", err)
	}
	// Int accepted where date declared.
	if err := s.Validate(Tuple{Int(122), Int(15000), Str("LA")}); err != nil {
		t.Errorf("int-for-date rejected: %v", err)
	}
	if err := s.Validate(Tuple{Int(122), Str("LA")}); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := s.Validate(Tuple{Str("x"), MustDate("2011-05-03"), Str("LA")}); err == nil {
		t.Error("wrong type accepted")
	}
	if err := s.Validate(Tuple{Null(), Null(), Null()}); err != nil {
		t.Errorf("NULLs must validate: %v", err)
	}
	want := "(fno INT, fdate DATE, dest VARCHAR)"
	if s.String() != want {
		t.Errorf("String() = %q, want %q", s.String(), want)
	}
}
