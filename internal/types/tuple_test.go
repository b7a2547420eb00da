package types

import (
	"math/rand"
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
	if s.Index("nope") != -1 {
		t.Error("missing column must report -1")
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
