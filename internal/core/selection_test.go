package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/eq"
	"repro/internal/types"
)

// Tests of the arrival run's selection rule: an arrival re-executes the
// arrivals, what they can entangle with, and what a commit may have
// changed — nothing else. They all run with noTick, so no whole-pool run
// can hide a member the selection stranded.

// coordOn coordinates me with them on a flight over answer relation rel
// instead of FlightRes, so members on different relations never entangle.
func coordOn(rel, me, them string, timeout time.Duration) Program {
	return Program{Name: me, Timeout: timeout, Body: func(tx *Tx) error {
		q := flightQuery(me, them)
		q.Head[0].Rel, q.Post[0].Rel = rel, rel
		if a := tx.Entangle(q); a.Status != eq.Answered {
			return fmt.Errorf("%s: %v", me, a.Status)
		}
		return nil
	}}
}

// submitRun submits p and waits for the arrival run it triggers (f=1).
func submitRun(t *testing.T, e *Engine, p Program) *Handle {
	t.Helper()
	want := e.Stats().Runs + 1
	h := e.Submit(p)
	eventually(t, time.Second, p.Name+"'s arrival run", func() bool { return e.Stats().Runs == want })
	return h
}

func waitCommitted(t *testing.T, hs ...*Handle) {
	t.Helper()
	for i, h := range hs {
		if o := waitWithin(t, h, time.Second); o.Status != StatusCommitted {
			t.Fatalf("handle %d: %+v", i, o)
		}
	}
}

// TestArrivalLeavesUnrelatedDormantAlone: bystanders waiting on private
// answer relations are never re-executed by the arrival runs of pairs they
// cannot entangle with — one attempt each, and the only requeues are the
// pairs' own (each first member waits once for its partner).
func TestArrivalLeavesUnrelatedDormantAlone(t *testing.T) {
	e := newTestEngine(t, Options{RetryInterval: noTick})
	var bystanders []*Handle
	for i := 0; i < 5; i++ {
		bystanders = append(bystanders, e.Submit(coordOn(fmt.Sprintf("Pend%d", i), fmt.Sprintf("by%d", i), "ghost", time.Minute)))
	}
	eventually(t, time.Second, "the bystanders to pool", func() bool { return e.Stats().Requeues == 5 })
	const pairs = 20
	for i := 0; i < pairs; i++ {
		a, b := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
		ha := e.Submit(bookFlightProg(a, b, 5*time.Second))
		hb := e.Submit(bookFlightProg(b, a, 5*time.Second))
		waitCommitted(t, ha, hb)
	}
	if d := e.Stats().Requeues - 5; d != pairs {
		t.Errorf("requeues during the pairs = %d, want %d (one per pair)", d, pairs)
	}
	e.Close()
	for i, h := range bystanders {
		if o := h.Wait(); o.Attempts != 1 {
			t.Errorf("bystander %d attempts = %d, want 1", i, o.Attempts)
		}
	}
}

// TestCommittedWriteWakesDormantMember: Mickey reads his partner's name
// from Friends before entangling. While the row says 'Nobody' he and Minnie
// cannot meet; a classical commit fixes the row, and the next arrival —
// unrelated to both — re-executes Mickey because a table he read changed,
// and his new query pulls Minnie in.
func TestCommittedWriteWakesDormantMember(t *testing.T) {
	e := newTestEngine(t, Options{RetryInterval: noTick})
	if _, err := e.Txm().CreateTable("Friends", types.NewSchema(
		types.Column{Name: "name", Type: types.KindString},
		types.Column{Name: "partner", Type: types.KindString})); err != nil {
		t.Fatal(err)
	}
	setPartner := func(partner string) {
		t.Helper()
		o := e.RunDirect(Program{Body: func(tx *Tx) error {
			ids, _, err := tx.ScanIDs("Friends")
			if err != nil {
				return err
			}
			row := types.Tuple{types.Str("Mickey"), types.Str(partner)}
			if len(ids) == 0 {
				_, err = tx.Insert("Friends", row)
				return err
			}
			return tx.Update("Friends", ids[0], row)
		}})
		if o.Status != StatusCommitted {
			t.Fatalf("set partner: %+v", o)
		}
	}
	setPartner("Nobody")
	mickey := Program{Name: "Mickey", Timeout: time.Minute, Body: func(tx *Tx) error {
		rows, err := tx.Scan("Friends")
		if err != nil {
			return err
		}
		return bookFlightProg("Mickey", rows[0][1].Str64(), 0).Body(tx)
	}}
	h1 := submitRun(t, e, mickey)
	// Minnie's query pulls Mickey, who still waits for 'Nobody': both pool.
	h2 := submitRun(t, e, bookFlightProg("Minnie", "Mickey", time.Minute))
	eventually(t, time.Second, "both to pool", func() bool { return e.Stats().Requeues == 3 })

	setPartner("Minnie")
	e.Submit(bookFlightProg("Goofy", "Pluto", time.Minute))
	waitCommitted(t, h1, h2)
	if o1, o2 := h1.Wait(), h2.Wait(); o1.Attempts != 3 || o2.Attempts != 2 {
		t.Errorf("attempts = %d, %d, want 3, 2", o1.Attempts, o2.Attempts)
	}
}

// TestPullClosesTransitively: the pull repeats at every quiescence, so a
// dormant member the arrival cannot entangle with directly still joins
// through one that it can, and the whole set commits in the arrival's run.
func TestPullClosesTransitively(t *testing.T) {
	t.Run("3-cycle", func(t *testing.T) {
		// A waits on B, B on C, C on A. In a 3-cycle every member can
		// entangle with both others, so the arrival pulls both at once.
		e := newTestEngine(t, Options{RetryInterval: noTick})
		ha := submitRun(t, e, coordOn("Cyc", "A", "B", time.Minute))
		hb := submitRun(t, e, coordOn("Cyc", "B", "C", time.Minute))
		hc := submitRun(t, e, coordOn("Cyc", "C", "A", time.Minute))
		waitCommitted(t, ha, hb, hc)
		if st := e.Stats(); st.Runs != 3 || st.GroupCommits != 1 {
			t.Errorf("runs = %d, group commits = %d, want 3, 1", st.Runs, st.GroupCommits)
		}
	})
	t.Run("chain", func(t *testing.T) {
		// The hub's one query needs both spokes; each spoke needs only the
		// hub. s2's arrival can entangle with the hub alone; the pulled hub's
		// query pulls s1 at the next quiescence.
		e := newTestEngine(t, Options{RetryInterval: noTick})
		hub := Program{Name: "hub", Timeout: time.Minute, Body: func(tx *Tx) error {
			q := flightQuery("hub", "s1")
			q.Post = append(q.Post, eq.NewAtom("FlightRes", eq.CStr("s2"), eq.V("fno"), eq.V("fdate")))
			if a := tx.Entangle(q); a.Status != eq.Answered {
				return fmt.Errorf("hub: %v", a.Status)
			}
			return nil
		}}
		h1 := submitRun(t, e, bookFlightProg("s1", "hub", time.Minute))
		hh := submitRun(t, e, hub)
		h2 := submitRun(t, e, bookFlightProg("s2", "hub", time.Minute))
		waitCommitted(t, h1, hh, h2)
		if st := e.Stats(); st.Runs != 3 || st.GroupCommits != 1 {
			t.Errorf("runs = %d, group commits = %d, want 3, 1", st.Runs, st.GroupCommits)
		}
	})
}

// TestPullFormsMultiQueryHub: the hub's second query is posed only after
// its first is answered, mid-run; the pull at that quiescence brings the
// dormant second spoke in, and all three commit as one group.
func TestPullFormsMultiQueryHub(t *testing.T) {
	e := newTestEngine(t, Options{RetryInterval: noTick})
	hub, s1, s2 := multiQueryHub()
	hh := submitRun(t, e, hub)
	h2 := submitRun(t, e, s2)
	h1 := e.Submit(s1)
	waitCommitted(t, hh, h1, h2)
	if st := e.Stats(); st.GroupCommits != 1 {
		t.Errorf("GroupCommits = %d, want 1", st.GroupCommits)
	}
}

// TestWakeSetConsumedByFlush: a run that re-executes a woken entry serves
// its wake. The entry is woken and, before the scheduler serves the wake's
// poke, a Flush re-executes and requeues it; the poke must then find the
// woken set empty instead of running the entry a second time for nothing.
func TestWakeSetConsumedByFlush(t *testing.T) {
	e := newTestEngine(t, Options{RetryInterval: noTick})
	entry := make(chan *pending, 1)
	prog := bookFlightProg("Donald", "Daffy", time.Minute)
	body := prog.Body
	prog.Body = func(tx *Tx) error {
		select {
		case entry <- tx.m.entry:
		default:
		}
		return body(tx)
	}
	submitRun(t, e, prog)
	ent := <-entry
	eventually(t, time.Second, "Donald to pool", func() bool { return e.Stats().Requeues == 1 })

	// wakeEntry without its poke: the poke is served after the Flush.
	e.mu.Lock()
	e.woken = map[*pending]bool{ent: true}
	e.mu.Unlock()
	before := e.Stats().Runs
	e.Flush()
	e.poke()
	time.Sleep(50 * time.Millisecond)
	if d := e.Stats().Runs - before; d != 1 {
		t.Errorf("runs rose by %d, want 1 (the Flush served the wake)", d)
	}
}
