package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/eq"
	"repro/internal/types"
)

// Column-level commit tracking: a commit that changes only columns no
// pending query reads neither wakes a dormant member nor voids an answer.
// SeatFlights' seats column is a singleton in seatQuery, so it is unread;
// dest is read through the Where constant.

// newSeatEngine is a no-tick test engine with a SeatFlights table and
// ground-hook, a trace sink that runs a callback inside the next grounding
// read once it is armed.
func newSeatEngine(t *testing.T) (*Engine, *groundHook) {
	t.Helper()
	hook := &groundHook{}
	e := newTestEngine(t, Options{RetryInterval: noTick, Trace: hook})
	addSeatFlights(t, e)
	return e, hook
}

func addSeatFlights(t *testing.T, e *Engine) {
	t.Helper()
	if _, err := e.Txm().CreateTable("SeatFlights", types.NewSchema(
		types.Column{Name: "fno", Type: types.KindInt},
		types.Column{Name: "fdate", Type: types.KindDate},
		types.Column{Name: "dest", Type: types.KindString},
		types.Column{Name: "seats", Type: types.KindInt})); err != nil {
		t.Fatal(err)
	}
	o := e.RunDirect(Program{Body: func(tx *Tx) error {
		for _, row := range []types.Tuple{
			{types.Int(122), types.MustDate("2011-05-03"), types.Str("LA"), types.Int(10)},
			{types.Int(235), types.MustDate("2011-05-05"), types.Str("Paris"), types.Int(5)},
		} {
			if _, err := tx.Insert("SeatFlights", row); err != nil {
				return err
			}
		}
		return nil
	}})
	if o.Status != StatusCommitted {
		t.Fatalf("seed SeatFlights: %+v", o)
	}
}

// seatQuery is flightQuery over SeatFlights, binding fno: seats is read by
// nothing.
func seatQuery(me, them string) *eq.Query {
	return &eq.Query{
		Head:   []eq.Atom{eq.NewAtom("SeatRes", eq.CStr(me), eq.V("fno"), eq.V("fdate"))},
		Post:   []eq.Atom{eq.NewAtom("SeatRes", eq.CStr(them), eq.V("fno"), eq.V("fdate"))},
		Body:   []eq.Atom{eq.NewAtom("SeatFlights", eq.V("fno"), eq.V("fdate"), eq.V("dest"), eq.V("seats"))},
		Where:  []eq.Constraint{{Left: eq.V("dest"), Op: eq.OpEq, Right: eq.CStr("LA")}},
		Bind:   []string{"fno"},
		Choose: 1,
	}
}

func seatProg(me, them string) Program {
	return Program{Name: me, Timeout: time.Minute, Body: func(tx *Tx) error {
		if a := tx.Entangle(seatQuery(me, them)); a.Status != eq.Answered {
			return fmt.Errorf("%s: %v", me, a.Status)
		}
		return nil
	}}
}

// rewriteFlight commits a classical update of the Paris row (RowID 1): the
// only column that differs is col.
func rewriteFlight(t *testing.T, e *Engine, col int) {
	t.Helper()
	row := types.Tuple{types.Int(235), types.MustDate("2011-05-05"), types.Str("Paris"), types.Int(5)}
	switch col {
	case 2:
		row[2] = types.Str("Rome")
	case 3:
		row[3] = types.Int(4)
	}
	if o := e.RunDirect(Program{Body: func(tx *Tx) error { return tx.Update("SeatFlights", 1, row) }}); o.Status != StatusCommitted {
		t.Errorf("update of column %d: %+v", col, o)
	}
}

// noop is an arrival that entangles with nothing and commits at once.
var noop = Program{Name: "noop", Timeout: time.Minute, Body: func(*Tx) error { return nil }}

// checkWake parks A on seatQuery, commits a change to column col, then
// submits an unrelated arrival and returns the requeues that arrival's run
// caused. The run settles the arrival before it requeues a woken member, so
// a second no-op serves as the barrier: its run starts only after the
// first one finished, and it wakes A in neither case.
func checkWake(t *testing.T, col int) int64 {
	e, _ := newSeatEngine(t)
	submitRun(t, e, seatProg("A", "B"))
	eventually(t, time.Second, "A to pool", func() bool { return e.Stats().Requeues == 1 })
	rewriteFlight(t, e, col)
	waitCommitted(t, submitRun(t, e, noop))
	waitCommitted(t, submitRun(t, e, noop))
	return e.Stats().Requeues - 1
}

func TestUnreadColumnWriteLeavesMemberDormant(t *testing.T) {
	if d := checkWake(t, 3); d != 0 {
		t.Errorf("a seats write re-executed the dormant member: requeues +%d, want +0", d)
	}
}

func TestReadColumnWriteWakesMember(t *testing.T) {
	if d := checkWake(t, 2); d != 1 {
		t.Errorf("a dest write: requeues +%d, want +1 (the dormant member re-executed)", d)
	}
}

// checkValidation parks A, then arms a commit to column col inside the
// grounding of B's arrival round — after the round's snapshot, before its
// validation — and returns both outcomes once they committed.
func checkValidation(t *testing.T, col int) (Outcome, Outcome) {
	e, hook := newSeatEngine(t)
	ha := submitRun(t, e, seatProg("A", "B"))
	eventually(t, time.Second, "A to pool", func() bool { return e.Stats().Requeues == 1 })
	hook.arm(func() { rewriteFlight(t, e, col) })
	hb := submitRun(t, e, seatProg("B", "A"))
	if hook.armed() {
		t.Fatal("B's round never grounded")
	}
	e.Flush() // retries a voided component
	waitCommitted(t, ha, hb)
	return ha.Wait(), hb.Wait()
}

func TestUnreadColumnCommitKeepsAnswer(t *testing.T) {
	if a, b := checkValidation(t, 3); a.Attempts != 2 || b.Attempts != 1 {
		t.Errorf("attempts = %d, %d, want 2, 1 (a seats commit must not void the answer)", a.Attempts, b.Attempts)
	}
}

func TestReadColumnCommitVoidsAnswer(t *testing.T) {
	if a, b := checkValidation(t, 2); a.Attempts != 3 || b.Attempts != 2 {
		t.Errorf("attempts = %d, %d, want 3, 2 (a dest commit voids the answer)", a.Attempts, b.Attempts)
	}
}

// checkPrepare splits the pair across two shards and commits a change to
// column col on A's shard while A's prepare is in flight (B has parked): the
// reservation's delivery validates A's offer against it. It returns the
// averted widows once both committed.
func checkPrepare(t *testing.T, col int) int64 {
	net, ea, eb := newDistPairRetry(t, 3*time.Second, noTick)
	addSeatFlights(t, ea)
	addSeatFlights(t, eb)
	net.slowPrepare["A"] = 300 * time.Millisecond
	h1 := submitRun(t, ea, seatProg("A", "B"))
	h2 := eb.Submit(seatProg("B", "A"))
	eventually(t, time.Second, "B to park", func() bool { return eb.Parked() == 1 })
	rewriteFlight(t, ea, col)
	for _, h := range []*Handle{h1, h2} {
		if o := waitWithin(t, h, 10*time.Second); o.Status != StatusCommitted {
			t.Fatalf("outcome %+v", o)
		}
	}
	return ea.Stats().WidowsAverted + eb.Stats().WidowsAverted
}

func TestPrepareSurvivesUnreadColumnCommit(t *testing.T) {
	if n := checkPrepare(t, 3); n != 0 {
		t.Errorf("a seats commit voted the prepare down: %d averted widows, want 0", n)
	}
}

// The member that votes its prepare down re-offers at once, and the offer
// can reach the matchmaker before its no vote does: the matchmaker holds it
// and pools it with the abort, so no tick is needed to re-offer it.
func TestPrepareVotedDownAfterReadColumnCommit(t *testing.T) {
	if n := checkPrepare(t, 2); n == 0 {
		t.Error("a dest commit left the prepare valid: no averted widow")
	}
}

// groundHook is a TraceSink whose next GroundingRead after arm runs fn, on
// the grounding worker, before the grounding proceeds.
type groundHook struct {
	mu sync.Mutex
	fn func()
}

func (h *groundHook) arm(fn func()) {
	h.mu.Lock()
	h.fn = fn
	h.mu.Unlock()
}

func (h *groundHook) armed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fn != nil
}

func (h *groundHook) GroundingRead(uint64, string) {
	h.mu.Lock()
	fn := h.fn
	h.fn = nil
	h.mu.Unlock()
	if fn != nil {
		fn()
	}
}

func (h *groundHook) Read(uint64, string)       {}
func (h *groundHook) QuasiRead(uint64, string)  {}
func (h *groundHook) Write(uint64, string)      {}
func (h *groundHook) Entangle(uint64, []uint64) {}
func (h *groundHook) Commit(uint64)             {}
func (h *groundHook) Abort(uint64)              {}
