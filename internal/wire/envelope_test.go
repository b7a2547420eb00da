package wire

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/eq"
	"repro/internal/obs"
	"repro/internal/types"
)

// Round-trip property for the shard payloads: for randomized envelopes of
// every kind, decode ∘ encode is the identity and the encoder's size is
// exact. An empty slice or map travels as nil, so the generator draws nil.

func genTerm(rng *rand.Rand, depth int) eq.Term {
	switch k := rng.Intn(5); {
	case k == 0:
		return eq.C(genValue(rng))
	case k == 1 || k == 2 && depth > 2:
		return eq.V(randString(rng, 1+rng.Intn(6)))
	case k == 2:
		return eq.Term{Arith: &eq.Arith{Sub: rng.Intn(2) == 0, L: genTerm(rng, depth+1), R: genTerm(rng, depth+1)}}
	case k == 3:
		return eq.P(rng.Intn(40))
	default:
		return eq.V([]string{"1", "2", "fno", "fdate"}[rng.Intn(4)])
	}
}

func genAtoms(rng *rand.Rand, max int) []eq.Atom {
	var as []eq.Atom
	for i := rng.Intn(max + 1); i > 0; i-- {
		a := eq.Atom{Rel: []string{"R", "Flights", randString(rng, rng.Intn(8))}[rng.Intn(3)]}
		for j := rng.Intn(5); j > 0; j-- {
			a.Args = append(a.Args, genTerm(rng, 0))
		}
		as = append(as, a)
	}
	return as
}

func genConstraints(rng *rand.Rand, depth int) []eq.Constraint {
	var cs []eq.Constraint
	for i := rng.Intn(3); i > 0; i-- {
		if depth < 2 && rng.Intn(3) == 0 {
			or := [][]eq.Constraint{}
			for j := rng.Intn(3); j > 0; j-- {
				or = append(or, genConstraints(rng, depth+1))
			}
			cs = append(cs, eq.Constraint{Or: or})
			continue
		}
		cs = append(cs, eq.Constraint{Left: genTerm(rng, 0), Op: eq.CmpOp(rng.Intn(int(eq.OpGe) + 1)), Right: genTerm(rng, 0)})
	}
	return cs
}

func genQuery(rng *rand.Rand) *eq.Query {
	q := &eq.Query{
		Head:   genAtoms(rng, 2),
		Post:   genAtoms(rng, 2),
		Body:   genAtoms(rng, 3),
		Where:  genConstraints(rng, 0),
		Choose: rng.Intn(3) - 1,
	}
	for i := rng.Intn(3); i > 0; i-- {
		q.Bind = append(q.Bind, randString(rng, 1+rng.Intn(4)))
	}
	return q
}

// genTupleOrNil is genTuple with nil for the empty tuple.
func genTupleOrNil(rng *rand.Rand) types.Tuple {
	if t := genTuple(rng); len(t) > 0 {
		return t
	}
	return nil
}

func genGroundAtoms(rng *rand.Rand) []eq.GroundAtom {
	var gs []eq.GroundAtom
	for i := rng.Intn(3); i > 0; i-- {
		gs = append(gs, eq.GroundAtom{Rel: randString(rng, rng.Intn(8)), Args: genTupleOrNil(rng)})
	}
	return gs
}

func genTime(rng *rand.Rand) time.Time {
	switch rng.Intn(4) {
	case 0:
		return time.Time{}
	case 1:
		return time.Unix(rng.Int63n(1<<40)-1<<39, rng.Int63n(1e9))
	default:
		return time.Unix(1_800_000_000+rng.Int63n(1e6), rng.Int63n(1e9))
	}
}

func genOffer(rng *rand.Rand) *dist.Offer {
	o := &dist.Offer{
		Node:     randString(rng, rng.Intn(20)),
		Shard:    rng.Intn(8) - 1,
		ID:       rng.Uint64() >> uint(rng.Intn(64)),
		Trace:    []uint64{0, rng.Uint64()}[rng.Intn(2)],
		CSN:      rng.Uint64() >> uint(rng.Intn(64)),
		Deadline: genTime(rng),
	}
	if rng.Intn(6) > 0 {
		o.Query = genQuery(rng)
	}
	var vars []string
	for i := rng.Intn(4); i > 0; i-- {
		vars = append(vars, randString(rng, 1+rng.Intn(3)))
	}
	for i := rng.Intn(5); i > 0; i-- {
		g := &eq.Grounding{Vars: vars, Head: genGroundAtoms(rng), Post: genGroundAtoms(rng)}
		if rng.Intn(4) == 0 {
			g.Vars = []string{randString(rng, 2)} // groundings need not share their names
		}
		for range g.Vars {
			g.Vals = append(g.Vals, genValue(rng))
		}
		o.Grounds = append(o.Grounds, g)
	}
	for i := rng.Intn(3); i > 0; i-- {
		o.Tables = append(o.Tables, randString(rng, 1+rng.Intn(10)))
	}
	return o
}

func genSpans(rng *rand.Rand) []obs.Span {
	var ss []obs.Span
	for i := rng.Intn(4); i > 0; i-- {
		ss = append(ss, obs.Span{
			Name:  []string{"parse", "ground", "solve", "commit", ""}[rng.Intn(5)],
			Actor: rng.Uint64(),
			Start: rng.Float64() * 1e3,
			DurMS: []float64{0, math.Inf(1), -rng.Float64(), rng.ExpFloat64()}[rng.Intn(4)],
			Shard: rng.Intn(4) - 1,
			Note:  randString(rng, rng.Intn(12)),
		})
	}
	return ss
}

// genEnvelope draws an envelope of every kind, the empty one included.
func genEnvelope(rng *rand.Rand) dist.Envelope {
	switch rng.Intn(5) {
	case 0:
		return dist.Envelope{Offer: genOffer(rng)}
	case 1:
		p := &dist.Prepare{Group: rng.Uint64(), Offer: rng.Uint64() >> uint(rng.Intn(64)), CSN: rng.Uint64() >> uint(rng.Intn(64))}
		p.Ans.Tuples = genGroundAtoms(rng)
		for i := rng.Intn(4); i > 0; i-- {
			if p.Ans.Bindings == nil {
				p.Ans.Bindings = make(map[string]types.Value)
			}
			p.Ans.Bindings[randString(rng, rng.Intn(5))] = genValue(rng)
		}
		return dist.Envelope{Prepare: p}
	case 2:
		return dist.Envelope{Vote: &dist.Vote{
			Group:      rng.Uint64(),
			Offer:      rng.Uint64() >> uint(rng.Intn(64)),
			Node:       randString(rng, rng.Intn(20)),
			Yes:        rng.Intn(2) == 0,
			Trace:      []uint64{0, rng.Uint64()}[rng.Intn(2)],
			TraceBegin: genTime(rng),
			Spans:      genSpans(rng),
		}}
	case 3:
		return dist.Envelope{Decide: &dist.Decide{Group: rng.Uint64() >> uint(rng.Intn(64)), Commit: rng.Intn(2) == 0}}
	default:
		return dist.Envelope{}
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	kinds := make(map[string]int)
	for i := 0; i < 3000; i++ {
		env := genEnvelope(rng)
		b := AppendEnvelope(nil, &env)
		if len(b) != envelopeSize(&env) {
			t.Fatalf("#%d size mismatch: encoded %d bytes, computed %d", i, len(b), envelopeSize(&env))
		}
		got, err := DecodeEnvelope(b)
		if err != nil {
			t.Fatalf("#%d decode: %v\n%+v", i, err, env)
		}
		if !reflect.DeepEqual(got, env) {
			t.Fatalf("#%d envelope not lossless:\n got:  %s\n want: %s", i, dump(got), dump(env))
		}
		if again := AppendEnvelope(nil, &got); !bytes.Equal(again, b) {
			t.Fatalf("#%d re-encoding differs", i)
		}
		kinds[fmt.Sprint(b[0])]++
	}
	if len(kinds) != 5 {
		t.Errorf("kinds drawn: %v, want all five", kinds)
	}
}

func dump(env dist.Envelope) string {
	switch {
	case env.Offer != nil:
		return fmt.Sprintf("offer %+v query %+v", *env.Offer, env.Offer.Query)
	case env.Prepare != nil:
		return fmt.Sprintf("prepare %+v", *env.Prepare)
	case env.Vote != nil:
		return fmt.Sprintf("vote %+v", *env.Vote)
	case env.Decide != nil:
		return fmt.Sprintf("decide %+v", *env.Decide)
	}
	return "empty"
}

// TestEnvelopeCoversEveryShape pins that the generator reaches what the
// codec must carry: parameter and arithmetic terms, disjunctions, NULL,
// date and bool values, spans, and a zero deadline.
func TestEnvelopeCoversEveryShape(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	seen := make(map[string]bool)
	var term func(eq.Term)
	term = func(x eq.Term) {
		switch {
		case x.Param > 0:
			seen["param"] = true
		case x.Arith != nil:
			seen["arith"] = true
			term(x.Arith.L)
			term(x.Arith.R)
		case !x.IsVar:
			seen["kind "+x.Value.Kind().String()] = true
		}
	}
	for i := 0; i < 3000; i++ {
		env := genEnvelope(rng)
		if o := env.Offer; o != nil {
			if o.Deadline.IsZero() {
				seen["zero deadline"] = true
			}
			if q := o.Query; q != nil {
				for _, as := range [][]eq.Atom{q.Head, q.Post, q.Body} {
					for _, a := range as {
						for _, x := range a.Args {
							term(x)
						}
					}
				}
				for _, c := range q.Where {
					if c.Or != nil {
						seen["or"] = true
					}
				}
			}
		}
		if v := env.Vote; v != nil && len(v.Spans) > 0 {
			seen["spans"] = true
		}
	}
	for _, want := range []string{"param", "arith", "or", "zero deadline", "spans",
		"kind " + types.KindNull.String(), "kind " + types.KindDate.String(), "kind " + types.KindBool.String()} {
		if !seen[want] {
			t.Errorf("generator never drew %s (drew %v)", want, seen)
		}
	}
}

func TestStatusRoundTrip(t *testing.T) {
	for _, st := range []dist.Status{
		{},
		{Group: 1, Known: true, Commit: true},
		{Group: math.MaxUint64, Known: true},
		{Group: 77, Pending: true},
	} {
		got, err := DecodeStatus(AppendStatus(nil, st))
		if err != nil || got != st {
			t.Errorf("status %+v decoded as %+v, %v", st, got, err)
		}
	}
	if _, err := DecodeStatus([]byte{1, 1 << 3}); err == nil {
		t.Error("unknown status flag decoded")
	}
}

// TestEnvelopeDecodeIsStrict: every truncation of a valid payload fails,
// and so do the encodings the encoder never writes, each of which would
// re-encode to other bytes.
func TestEnvelopeDecodeIsStrict(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for i := 0; i < 300; i++ {
		env := genEnvelope(rng)
		b := AppendEnvelope(nil, &env)
		for n := 0; n < len(b); n++ {
			if _, err := DecodeEnvelope(b[:n]); err == nil {
				t.Fatalf("#%d: %d of %d bytes decoded", i, n, len(b))
			}
		}
		if _, err := DecodeEnvelope(append(b, 0)); err == nil {
			t.Fatalf("#%d: trailing byte decoded", i)
		}
	}
	deep := []byte{envOffer, 0, 0, 0, 0, offerFlagQuery, 1, 1, 'R', 1}
	for i := 0; i <= maxNesting; i++ {
		deep = append(deep, termSum)
	}
	for _, bad := range []struct {
		name string
		b    []byte
	}{
		{"unknown kind", []byte{5}},
		{"non-minimal varint", []byte{envDecide, 0x81, 0x00, 1}},
		{"decide commit byte 2", []byte{envDecide, 1, 2}},
		{"unknown offer flag", []byte{envOffer, 0, 0, 0, 0, 1 << 2, 0, 0, 0}},
		{"bindings out of order", []byte{envPrepare, 1, 1, 1, 0, 2, 1, 'b', 0, 1, 'a', 0}},
		{"repeated binding", []byte{envPrepare, 1, 1, 1, 0, 2, 1, 'a', 0, 1, 'a', 0}},
		{"non-minimal value", []byte{envPrepare, 1, 1, 1, 0, 1, 1, 'a', byte(types.KindInt), 0x80, 0x00}},
		{"unknown operator", []byte{envOffer, 0, 0, 0, 0, offerFlagQuery, 0, 0, 0, 1, consCmp, termConst, 0, 6, termConst, 0, 0, 0, 0, 0, 0}},
		{"parameter 0", []byte{envOffer, 0, 0, 0, 0, offerFlagQuery, 1, 1, 'R', 1, termParam, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"nanoseconds past a second", []byte{envOffer, 0, 0, 0, 0, offerFlagDeadline, 0, 0, 0, 2, 0x80, 0x94, 0xeb, 0xdc, 0x03}},
		{"lying grounding count", []byte{envOffer, 0, 0, 0, 0, 0, 0xff, 0xff, 0x03, 0, 0}},
		{"nesting past the limit", deep},
	} {
		if _, err := DecodeEnvelope(bad.b); err == nil {
			t.Errorf("%s: decoded", bad.name)
		}
	}
}

// benchOffer is the offer a pair_xshard member sends: the bench script's
// compiled query, grounded over the eight flights to its destination.
func benchOffer(tb testing.TB) *dist.Offer {
	tb.Helper()
	q := &eq.Query{
		Head:   []eq.Atom{eq.NewAtom("R", eq.CStr("s1_0_0a"), eq.V("1"), eq.V("2"))},
		Post:   []eq.Atom{eq.NewAtom("R", eq.CStr("s1_0_0b"), eq.V("1"), eq.V("2"))},
		Body:   []eq.Atom{eq.NewAtom("Flights", eq.V("1"), eq.V("2"), eq.V("3"), eq.V("4"))},
		Where:  []eq.Constraint{{Left: eq.V("3"), Op: eq.OpEq, Right: eq.CStr("D0001")}},
		Bind:   []string{"1", "2"},
		Choose: 1,
	}
	var flights []types.Tuple
	for fno := 9; fno <= 16; fno++ {
		flights = append(flights, types.Tuple{types.Int(int64(fno)), types.MustDate(fmt.Sprintf("2011-05-%02d", fno-8)), types.Str("D0001"), types.Int(100)})
	}
	gs, err := eq.Ground(q, eq.MapReader{"Flights": flights}, 0)
	if err != nil || len(gs) != 8 {
		tb.Fatalf("ground: %d groundings, %v", len(gs), err)
	}
	return &dist.Offer{Node: "127.0.0.1:40123", Shard: 1, ID: 0x1f3a5c7e9b2d4f60, Trace: 0, Query: q, Grounds: gs,
		Tables: []string{"Flights"}, CSN: 48213, Deadline: time.Unix(1_800_000_000, 123_456_789)}
}

// TestBenchOfferCost bounds the benchmark's offer on the wire: at most
// 1 KB, and at most 200 allocations to encode and decode it.
func TestBenchOfferCost(t *testing.T) {
	env := dist.Envelope{Offer: benchOffer(t)}
	b := AppendEnvelope(nil, &env)
	if len(b) > 1024 {
		t.Errorf("bench offer is %d bytes, want at most 1024", len(b))
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeEnvelope(AppendEnvelope(nil, &env)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("bench offer: %d bytes, %.0f allocations to encode and decode", len(b), allocs)
	if allocs > 200 {
		t.Errorf("encoding and decoding the bench offer allocates %.0f times, want at most 200", allocs)
	}
}

// BenchmarkEnvelopeOffer times the bench's 8-grounding offer through the
// codec: encode, decode, and both.
func BenchmarkEnvelopeOffer(b *testing.B) {
	env := dist.Envelope{Offer: benchOffer(b)}
	enc := AppendEnvelope(nil, &env)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		for range b.N {
			AppendEnvelope(nil, &env)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		for range b.N {
			if _, err := DecodeEnvelope(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("both", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		for range b.N {
			if _, err := DecodeEnvelope(AppendEnvelope(nil, &env)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
