package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/eq"
	"repro/internal/types"
)

// The engine's evaluator reuses one arena round after round: a round's
// groundings are overwritten by the next round, so whatever outlives the
// round — an answer a program holds, an offer the matchmaker holds — must
// own its memory. These tests read both after later rounds have run.

// flightsTo builds "me takes the same flight to dest as them", answered in
// relation rel.
func flightsTo(rel, me, them, dest string) *eq.Query {
	return &eq.Query{
		Head:   []eq.Atom{eq.NewAtom(rel, eq.CStr(me), eq.V("fno"), eq.V("fdate"))},
		Post:   []eq.Atom{eq.NewAtom(rel, eq.CStr(them), eq.V("fno"), eq.V("fdate"))},
		Body:   []eq.Atom{eq.NewAtom("Flights", eq.V("fno"), eq.V("fdate"), eq.V("dest"))},
		Where:  []eq.Constraint{{Left: eq.V("dest"), Op: eq.OpEq, Right: eq.CStr(dest)}},
		Choose: 1,
	}
}

// addRomeFlights inserts n flights to Rome, so a query over them has n
// groundings: rounds over Rome fill more of the arena than rounds over LA.
func addRomeFlights(t *testing.T, e *Engine, n int) {
	t.Helper()
	tx, err := e.BeginClassical()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		row := types.Tuple{types.Int(int64(500 + i)), types.MustDate("2011-06-01"), types.Str("Rome")}
		if _, err := tx.Insert("Flights", row); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// runRomePair coordinates one pair over the Rome flights, committing
// locally.
func runRomePair(t *testing.T, e *Engine, rel string) {
	t.Helper()
	prog := func(me, them string) Program {
		return Program{Name: rel + "-" + me, Timeout: 5 * time.Second, Body: func(tx *Tx) error {
			if a := tx.Entangle(flightsTo(rel, me, them, "Rome")); a.Status != eq.Answered {
				return fmt.Errorf("%s: %v", me, a.Status)
			}
			return nil
		}}
	}
	h1, h2 := e.Submit(prog("Ann", "Bob")), e.Submit(prog("Bob", "Ann"))
	if o1, o2 := h1.Wait(), h2.Wait(); o1.Status != StatusCommitted || o2.Status != StatusCommitted {
		t.Fatalf("%s pair: %+v, %+v", rel, o1, o2)
	}
}

// TestAnswerOutlivesLaterRounds: a program reads its first answer after the
// scheduler has evaluated two later rounds of the same run, and the
// answer's Tuples and Bindings are still the ones it received.
func TestAnswerOutlivesLaterRounds(t *testing.T) {
	e := newTestEngine(t, Options{RetryInterval: noTick})
	addRomeFlights(t, e, 40)
	runRomePair(t, e, "Warm") // grow the arena to what a Rome round needs

	prog := func(me, them string) Program {
		return Program{Name: me, Timeout: 5 * time.Second, Body: func(tx *Tx) error {
			first := tx.Entangle(flightsTo("R1", me, them, "LA"))
			if first.Status != eq.Answered {
				return fmt.Errorf("%s: first query %v", me, first.Status)
			}
			want := fmt.Sprint(first.Tuples, first.Bindings)
			for _, rel := range []string{"R2", "R3"} {
				if a := tx.Entangle(flightsTo(rel, me, them, "Rome")); a.Status != eq.Answered {
					return fmt.Errorf("%s: %s query %v", me, rel, a.Status)
				}
			}
			if got := fmt.Sprint(first.Tuples, first.Bindings); got != want {
				return fmt.Errorf("%s: first answer changed under later rounds: %s, want %s", me, got, want)
			}
			return nil
		}}
	}
	h1, h2 := e.Submit(prog("Mickey", "Minnie")), e.Submit(prog("Minnie", "Mickey"))
	for _, o := range []Outcome{h1.Wait(), h2.Wait()} {
		if o.Status != StatusCommitted {
			t.Fatalf("outcome %v: %v", o.Status, o.Err)
		}
	}
}

// offerLog is a shard-0 transport: offers reach it in process, as the
// matchmaker hosted on shard 0 receives them, with no encoding step that
// would copy them. It records each offer and its groundings' bytes on
// arrival.
type offerLog struct {
	got chan loggedOffer
}

type loggedOffer struct {
	o     *dist.Offer
	bytes []byte
}

func (l *offerLog) Offer(o dist.Offer) {
	l.got <- loggedOffer{o: &o, bytes: groundsBytes(o.Grounds)}
}

func (l *offerLog) Vote(dist.Vote) {}

func (l *offerLog) Status(uint64) (dist.Status, error) { return dist.Status{}, nil }

// groundsBytes snapshots groundings in the binary value encoding: every
// variable name, value and ground atom, in order.
func groundsBytes(gs []*eq.Grounding) []byte {
	var b []byte
	atoms := func(as []eq.GroundAtom) {
		for _, a := range as {
			b = append(append(b, a.Rel...), 0)
			b = types.EncodeTuple(b, a.Args)
		}
		b = append(b, 0)
	}
	for _, g := range gs {
		for _, v := range g.Vars {
			b = append(append(b, v...), 0)
		}
		b = types.EncodeTuple(b, g.Vals)
		atoms(g.Head)
		atoms(g.Post)
	}
	return b
}

// TestOfferOutlivesLaterRounds: a shard-0 member's offer, held in process
// the way the matchmaker holds it, keeps byte-identical groundings after
// later rounds have reused the evaluator's arena.
func TestOfferOutlivesLaterRounds(t *testing.T) {
	e := newTestEngine(t, Options{RetryInterval: noTick})
	log := &offerLog{got: make(chan loggedOffer, 64)}
	e.EnableDist(DistConfig{Shard: 0, Node: "A", Transport: log})
	addRomeFlights(t, e, 40)
	runRomePair(t, e, "Warm")

	// Mickey's partner lives on another shard: his query has no local
	// partner and goes out as an offer.
	e.Submit(Program{Name: "Mickey", Timeout: time.Minute, Body: func(tx *Tx) error {
		tx.Entangle(flightsTo("FlightRes", "Mickey", "Minnie", "LA"))
		return nil
	}})
	var offer loggedOffer
	for offer.o == nil {
		select {
		case l := <-log.got:
			if l.o.Query.Head[0].Rel == "FlightRes" {
				offer = l
			}
		case <-time.After(5 * time.Second):
			t.Fatal("no offer for the partner-less member")
		}
	}
	if len(offer.o.Grounds) != 3 {
		t.Fatalf("offer carries %d groundings, want the 3 LA flights", len(offer.o.Grounds))
	}

	runRomePair(t, e, "Later1")
	runRomePair(t, e, "Later2")
	if got := groundsBytes(offer.o.Grounds); string(got) != string(offer.bytes) {
		t.Errorf("offer groundings changed under later rounds:\n%q\nwant\n%q", got, offer.bytes)
	}
}
