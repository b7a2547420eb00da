package dist_test

import (
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/types"
	"repro/internal/wire"
)

// TestOfferWireShapeKeepsBindings: groundings cross between peers in the
// envelope codec (their values, variable names, head and postcondition),
// and an offer that went through wire.AppendEnvelope and
// wire.DecodeEnvelope yields the same matchmaker answers — Tuples and
// Bindings — as the same offer handed over in process.
func TestOfferWireShapeKeepsBindings(t *testing.T) {
	answers := func(overWire bool) map[string]dist.Answer {
		m, prepared := dist.NewTestMatchmaker(t)
		for i, o := range []*dist.Offer{dist.FlightOffer(t, "n0", 1, "Mickey", "Minnie"), dist.FlightOffer(t, "n1", 2, "Minnie", "Mickey")} {
			if overWire {
				env, err := wire.DecodeEnvelope(wire.AppendEnvelope(nil, &dist.Envelope{Offer: o}))
				if err != nil {
					t.Fatal(err)
				}
				o = env.Offer
				if g := o.Grounds[0]; len(g.Vars) != 3 || len(g.Vals) != 3 {
					t.Fatalf("offer %d decoded grounding %+v, want three variables with values", i, g)
				}
			}
			m.AddOffer(o)
		}
		return prepared(2)
	}
	local, overWire := answers(false), answers(true)
	if len(local) != 2 || !reflect.DeepEqual(local, overWire) {
		t.Fatalf("answers over the wire differ from in process:\n%+v\n%+v", overWire, local)
	}
	want := map[string]types.Value{"fno": types.Int(122), "fdate": types.MustDate("2011-05-03"), "dest": types.Str("LA")}
	if b := local["n0"].Bindings; !reflect.DeepEqual(b, want) {
		t.Errorf("bindings = %v, want %v", b, want)
	}
}
