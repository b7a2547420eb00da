package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/eq"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
)

// newTestEngine builds an engine over the travel schema of the paper with
// the Figure 1(a) data.
func newTestEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	return newTestEngineOn(t, opts, lock.New(500*time.Millisecond))
}

// newTestEngineOn is newTestEngine over a caller-built lock manager.
func newTestEngineOn(t *testing.T, opts Options, locks *lock.Manager) *Engine {
	t.Helper()
	cat := storage.NewCatalog()
	txm := txn.NewManager(cat, locks, nil)

	mustCreate := func(name string, cols ...types.Column) {
		if _, err := txm.CreateTable(name, types.NewSchema(cols...)); err != nil {
			t.Fatal(err)
		}
	}
	mustCreate("Flights",
		types.Column{Name: "fno", Type: types.KindInt},
		types.Column{Name: "fdate", Type: types.KindDate},
		types.Column{Name: "dest", Type: types.KindString})
	mustCreate("Airlines",
		types.Column{Name: "fno", Type: types.KindInt},
		types.Column{Name: "airline", Type: types.KindString})
	mustCreate("Hotels",
		types.Column{Name: "hid", Type: types.KindInt},
		types.Column{Name: "location", Type: types.KindString})
	mustCreate("Reservations",
		types.Column{Name: "name", Type: types.KindString},
		types.Column{Name: "fno", Type: types.KindInt},
		types.Column{Name: "fdate", Type: types.KindDate})
	mustCreate("HotelBookings",
		types.Column{Name: "name", Type: types.KindString},
		types.Column{Name: "hid", Type: types.KindInt},
		types.Column{Name: "arrival", Type: types.KindDate},
		types.Column{Name: "nights", Type: types.KindInt})

	seed, err := txm.Begin(txn.Serializable)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []types.Tuple{
		{types.Int(122), types.MustDate("2011-05-03"), types.Str("LA")},
		{types.Int(123), types.MustDate("2011-05-04"), types.Str("LA")},
		{types.Int(124), types.MustDate("2011-05-03"), types.Str("LA")},
		{types.Int(235), types.MustDate("2011-05-05"), types.Str("Paris")},
	} {
		if _, err := seed.Insert("Flights", row); err != nil {
			t.Fatal(err)
		}
	}
	for _, row := range []types.Tuple{
		{types.Int(122), types.Str("United")},
		{types.Int(123), types.Str("United")},
		{types.Int(124), types.Str("USAir")},
		{types.Int(235), types.Str("Delta")},
	} {
		if _, err := seed.Insert("Airlines", row); err != nil {
			t.Fatal(err)
		}
	}
	for _, row := range []types.Tuple{
		{types.Int(7), types.Str("LA")},
		{types.Int(8), types.Str("LA")},
		{types.Int(9), types.Str("NYC")},
	} {
		if _, err := seed.Insert("Hotels", row); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	e := NewEngine(txm, opts)
	t.Cleanup(e.Close)
	return e
}

// flightQuery builds "me flies to LA on the same flight as them".
func flightQuery(me, them string) *eq.Query {
	return &eq.Query{
		Head:   []eq.Atom{eq.NewAtom("FlightRes", eq.CStr(me), eq.V("fno"), eq.V("fdate"))},
		Post:   []eq.Atom{eq.NewAtom("FlightRes", eq.CStr(them), eq.V("fno"), eq.V("fdate"))},
		Body:   []eq.Atom{eq.NewAtom("Flights", eq.V("fno"), eq.V("fdate"), eq.V("dest"))},
		Where:  []eq.Constraint{{Left: eq.V("dest"), Op: eq.OpEq, Right: eq.CStr("LA")}},
		Choose: 1,
	}
}

// hotelQuery builds "me stays at the same LA hotel as them from arrival".
func hotelQuery(me, them string, arrival types.Value, nights int64) *eq.Query {
	return &eq.Query{
		Head: []eq.Atom{eq.NewAtom("HotelRes", eq.CStr(me), eq.V("hid"), eq.C(arrival), eq.CInt(nights))},
		Post: []eq.Atom{eq.NewAtom("HotelRes", eq.CStr(them), eq.V("hid"), eq.C(arrival), eq.CInt(nights))},
		Body: []eq.Atom{eq.NewAtom("Hotels", eq.V("hid"), eq.V("loc"))},
		Where: []eq.Constraint{
			{Left: eq.V("loc"), Op: eq.OpEq, Right: eq.CStr("LA")},
		},
		Choose: 1,
	}
}

// bookFlightProg is a single-entangled-query travel program: coordinate on
// a flight with partner, then insert the booking.
func bookFlightProg(me, them string, timeout time.Duration) Program {
	return Program{
		Name:    "book-" + me,
		Timeout: timeout,
		Body: func(tx *Tx) error {
			a := tx.Entangle(flightQuery(me, them))
			if a.Status != eq.Answered {
				return fmt.Errorf("%s: flight query %v", me, a.Status)
			}
			_, err := tx.Insert("Reservations", types.Tuple{
				types.Str(me), a.Bindings["fno"], a.Bindings["fdate"],
			})
			return err
		},
	}
}

func scanAll(t *testing.T, e *Engine, table string) []types.Tuple {
	t.Helper()
	tx, err := e.BeginClassical()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Commit()
	rows, err := tx.Scan(table)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestPairCoordinatesAndCommits(t *testing.T) {
	e := newTestEngine(t, Options{RunFrequency: 2})
	h1 := e.Submit(bookFlightProg("Mickey", "Minnie", time.Second))
	h2 := e.Submit(bookFlightProg("Minnie", "Mickey", time.Second))
	o1, o2 := h1.Wait(), h2.Wait()
	if o1.Status != StatusCommitted || o2.Status != StatusCommitted {
		t.Fatalf("outcomes = %+v, %+v", o1, o2)
	}
	rows := scanAll(t, e, "Reservations")
	if len(rows) != 2 {
		t.Fatalf("reservations = %v", rows)
	}
	if !rows[0][1].Equal(rows[1][1]) || !rows[0][2].Equal(rows[1][2]) {
		t.Fatalf("pair booked different flights: %v", rows)
	}
	st := e.Stats()
	if st.GroupCommits != 1 {
		t.Errorf("GroupCommits = %d, want 1", st.GroupCommits)
	}
	if st.EntangleOps < 1 {
		t.Errorf("EntangleOps = %d", st.EntangleOps)
	}
}

// TestTravelScenario is the Figure 2 transaction: coordinate on a flight,
// compute the stay length from the arrival day (@ArrivalDay/@StayLength),
// then coordinate on a hotel — two entangled queries in one transaction.
func TestTravelScenario(t *testing.T) {
	e := newTestEngine(t, Options{RunFrequency: 2})
	departure := types.MustDate("2011-05-06")
	travel := func(me, them string) Program {
		return Program{
			Name:    "travel-" + me,
			Timeout: 2 * time.Second,
			Body: func(tx *Tx) error {
				fa := tx.Entangle(flightQuery(me, them))
				if fa.Status != eq.Answered {
					return fmt.Errorf("flight: %v", fa.Status)
				}
				arrival := fa.Bindings["fdate"]
				if _, err := tx.Insert("Reservations", types.Tuple{types.Str(me), fa.Bindings["fno"], arrival}); err != nil {
					return err
				}
				stay, err := departure.Sub(arrival)
				if err != nil {
					return err
				}
				ha := tx.Entangle(hotelQuery(me, them, arrival, stay.Int64()))
				if ha.Status != eq.Answered {
					return fmt.Errorf("hotel: %v", ha.Status)
				}
				_, err = tx.Insert("HotelBookings", types.Tuple{
					types.Str(me), ha.Bindings["hid"], arrival, stay,
				})
				return err
			},
		}
	}
	h1 := e.Submit(travel("Mickey", "Minnie"))
	h2 := e.Submit(travel("Minnie", "Mickey"))
	o1, o2 := h1.Wait(), h2.Wait()
	if o1.Status != StatusCommitted || o2.Status != StatusCommitted {
		t.Fatalf("outcomes = %+v / %+v", o1, o2)
	}
	hotels := scanAll(t, e, "HotelBookings")
	if len(hotels) != 2 {
		t.Fatalf("hotel bookings = %v", hotels)
	}
	if !hotels[0][1].Equal(hotels[1][1]) {
		t.Fatalf("different hotels: %v", hotels)
	}
	// Stay length consistent with the coordinated arrival date.
	for _, h := range hotels {
		wantStay := departure.Int64() - h[2].Int64()
		if h[3].Int64() != wantStay {
			t.Errorf("stay = %d, want %d", h[3].Int64(), wantStay)
		}
	}
}

func TestNoPartnerTimesOut(t *testing.T) {
	e := newTestEngine(t, Options{RetryInterval: 10 * time.Millisecond})
	h := e.Submit(bookFlightProg("Donald", "Daffy", 150*time.Millisecond))
	o := h.Wait()
	if o.Status != StatusTimedOut || !errors.Is(o.Err, ErrTimeout) {
		t.Fatalf("outcome = %+v", o)
	}
	if o.Attempts < 1 {
		t.Errorf("attempts = %d", o.Attempts)
	}
	if rows := scanAll(t, e, "Reservations"); len(rows) != 0 {
		t.Errorf("reservations leaked: %v", rows)
	}
	if st := e.Stats(); st.Timeouts != 1 {
		t.Errorf("Timeouts = %d", st.Timeouts)
	}
}

func TestPartnerArrivesInLaterRun(t *testing.T) {
	e := newTestEngine(t, Options{RunFrequency: 1, RetryInterval: 5 * time.Millisecond})
	h1 := e.Submit(bookFlightProg("Mickey", "Minnie", 2*time.Second))
	e.Flush() // Mickey runs alone, blocks, aborts, returns to the pool
	h2 := e.Submit(bookFlightProg("Minnie", "Mickey", 2*time.Second))
	o1, o2 := h1.Wait(), h2.Wait()
	if o1.Status != StatusCommitted || o2.Status != StatusCommitted {
		t.Fatalf("outcomes = %+v / %+v", o1, o2)
	}
	if o1.Attempts < 2 {
		t.Errorf("Mickey attempts = %d, want >= 2 (one failed run)", o1.Attempts)
	}
	if st := e.Stats(); st.Requeues < 1 {
		t.Errorf("Requeues = %d", st.Requeues)
	}
}

// TestFigure4 reproduces the three-transaction run of Figure 4: Mickey and
// Minnie coordinate and commit; Donald (waiting for Daffy) is aborted and
// returned to the pool, eventually timing out.
func TestFigure4(t *testing.T) {
	e := newTestEngine(t, Options{RunFrequency: 3, RetryInterval: 10 * time.Millisecond})
	h1 := e.Submit(bookFlightProg("Mickey", "Minnie", 2*time.Second))
	h2 := e.Submit(bookFlightProg("Minnie", "Mickey", 2*time.Second))
	h3 := e.Submit(bookFlightProg("Donald", "Daffy", 300*time.Millisecond))
	if o := h1.Wait(); o.Status != StatusCommitted {
		t.Fatalf("Mickey: %+v", o)
	}
	if o := h2.Wait(); o.Status != StatusCommitted {
		t.Fatalf("Minnie: %+v", o)
	}
	if o := h3.Wait(); o.Status != StatusTimedOut {
		t.Fatalf("Donald: %+v", o)
	}
	rows := scanAll(t, e, "Reservations")
	if len(rows) != 2 {
		t.Fatalf("reservations = %v", rows)
	}
}

// TestWidowPrevention: Minnie rolls back after entangling; Mickey is ready
// but must not commit (group commit), so he aborts and retries until his
// timeout. No partial bookings may survive.
func TestWidowPrevention(t *testing.T) {
	e := newTestEngine(t, Options{RunFrequency: 2, RetryInterval: 10 * time.Millisecond})
	mickey := bookFlightProg("Mickey", "Minnie", 250*time.Millisecond)
	minnie := Program{
		Name:    "minnie-aborts",
		Timeout: 250 * time.Millisecond,
		Body: func(tx *Tx) error {
			a := tx.Entangle(flightQuery("Minnie", "Mickey"))
			if a.Status != eq.Answered {
				return fmt.Errorf("flight: %v", a.Status)
			}
			// Something goes wrong during booking: explicit rollback.
			tx.Rollback()
			return nil
		},
	}
	h1 := e.Submit(mickey)
	h2 := e.Submit(minnie)
	o2 := h2.Wait()
	if o2.Status != StatusRolledBack {
		t.Fatalf("Minnie outcome = %+v", o2)
	}
	o1 := h1.Wait()
	if o1.Status == StatusCommitted {
		t.Fatalf("Mickey committed despite widowed group: %+v", o1)
	}
	if rows := scanAll(t, e, "Reservations"); len(rows) != 0 {
		t.Fatalf("widowed booking survived: %v", rows)
	}
	if st := e.Stats(); st.WidowsAverted < 1 {
		t.Errorf("WidowsAverted = %d", st.WidowsAverted)
	}
}

// TestNoWidowGuardAllowsWidow is the ablation: with group commit disabled,
// Mickey commits even though Minnie aborted — the widowed-transaction
// anomaly becomes observable.
func TestNoWidowGuardAllowsWidow(t *testing.T) {
	e := newTestEngine(t, Options{Isolation: NoWidowGuard, RunFrequency: 2})
	h1 := e.Submit(bookFlightProg("Mickey", "Minnie", time.Second))
	h2 := e.Submit(Program{
		Name:    "minnie-aborts",
		Timeout: time.Second,
		Body: func(tx *Tx) error {
			a := tx.Entangle(flightQuery("Minnie", "Mickey"))
			if a.Status != eq.Answered {
				return fmt.Errorf("flight: %v", a.Status)
			}
			tx.Rollback()
			return nil
		},
	})
	if o := h1.Wait(); o.Status != StatusCommitted {
		t.Fatalf("Mickey = %+v", o)
	}
	if o := h2.Wait(); o.Status != StatusRolledBack {
		t.Fatalf("Minnie = %+v", o)
	}
	rows := scanAll(t, e, "Reservations")
	if len(rows) != 1 || rows[0][0].Str64() != "Mickey" {
		t.Fatalf("expected Mickey's widowed booking, got %v", rows)
	}
}

func TestEmptyAnswerObservable(t *testing.T) {
	// Partners present but constraints incompatible: one wants LA flights,
	// the other Paris flights, coordinating on the same values — empty
	// answer, bodies proceed and report it.
	e := newTestEngine(t, Options{RunFrequency: 2})
	mk := func(me, them, dest string) Program {
		return Program{
			Name:    me,
			Timeout: time.Second,
			Body: func(tx *Tx) error {
				q := flightQuery(me, them)
				q.Where[0].Right = eq.CStr(dest)
				a := tx.Entangle(q)
				if a.Status != eq.EmptyAnswer {
					return fmt.Errorf("status = %v, want EmptyAnswer", a.Status)
				}
				return nil // proceed without booking
			},
		}
	}
	h1 := e.Submit(mk("A", "B", "LA"))
	h2 := e.Submit(mk("B", "A", "Paris"))
	if o := h1.Wait(); o.Status != StatusCommitted {
		t.Fatalf("A = %+v", o)
	}
	if o := h2.Wait(); o.Status != StatusCommitted {
		t.Fatalf("B = %+v", o)
	}
}

func TestRunDirectClassical(t *testing.T) {
	e := newTestEngine(t, Options{})
	o := e.RunDirect(Program{
		Name: "classical",
		Body: func(tx *Tx) error {
			rows, err := tx.Scan("Flights")
			if err != nil {
				return err
			}
			if len(rows) != 4 {
				return fmt.Errorf("rows = %d", len(rows))
			}
			_, err = tx.Insert("Reservations", types.Tuple{types.Str("solo"), types.Int(122), types.MustDate("2011-05-03")})
			return err
		},
	})
	if o.Status != StatusCommitted {
		t.Fatalf("outcome = %+v", o)
	}
	if rows := scanAll(t, e, "Reservations"); len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestRunDirectRollbackAndFailure(t *testing.T) {
	e := newTestEngine(t, Options{})
	o := e.RunDirect(Program{Body: func(tx *Tx) error {
		tx.Insert("Reservations", types.Tuple{types.Str("x"), types.Int(1), types.Date(0)})
		tx.Rollback()
		return nil
	}})
	if o.Status != StatusRolledBack {
		t.Fatalf("outcome = %+v", o)
	}
	if rows := scanAll(t, e, "Reservations"); len(rows) != 0 {
		t.Fatalf("rollback leaked rows: %v", rows)
	}
	o = e.RunDirect(Program{Body: func(tx *Tx) error { return errors.New("boom") }})
	if o.Status != StatusFailed {
		t.Fatalf("outcome = %+v", o)
	}
}

func TestRunDirectRejectsEntangle(t *testing.T) {
	e := newTestEngine(t, Options{})
	o := e.RunDirect(Program{Body: func(tx *Tx) error {
		a := tx.Entangle(flightQuery("A", "B"))
		if a.Status != eq.Errored || !errors.Is(a.Err, ErrDirectEntangle) {
			return fmt.Errorf("answer = %+v", a)
		}
		return a.Err
	}})
	if o.Status != StatusFailed {
		t.Fatalf("outcome = %+v", o)
	}
}

func TestAutocommitMode(t *testing.T) {
	e := newTestEngine(t, Options{RunFrequency: 2})
	// -Q style: statements commit individually; an error midway leaves
	// earlier statements' effects behind (no atomicity).
	o := e.RunDirect(Program{
		Autocommit: true,
		Body: func(tx *Tx) error {
			if _, err := tx.Insert("Reservations", types.Tuple{types.Str("q1"), types.Int(1), types.Date(0)}); err != nil {
				return err
			}
			return errors.New("later failure")
		},
	})
	if o.Status != StatusFailed {
		t.Fatalf("outcome = %+v", o)
	}
	if rows := scanAll(t, e, "Reservations"); len(rows) != 1 {
		t.Fatalf("autocommit statement not persisted: %v", rows)
	}
}

func TestAutocommitEntangledPair(t *testing.T) {
	// Entangled-Q: entangled queries outside a transaction block still
	// coordinate, but without group commit semantics.
	e := newTestEngine(t, Options{RunFrequency: 2})
	mk := func(me, them string) Program {
		return Program{
			Name:       "q-" + me,
			Autocommit: true,
			Timeout:    time.Second,
			Body: func(tx *Tx) error {
				a := tx.Entangle(flightQuery(me, them))
				if a.Status != eq.Answered {
					return fmt.Errorf("status %v", a.Status)
				}
				_, err := tx.Insert("Reservations", types.Tuple{types.Str(me), a.Bindings["fno"], a.Bindings["fdate"]})
				return err
			},
		}
	}
	h1 := e.Submit(mk("Mickey", "Minnie"))
	h2 := e.Submit(mk("Minnie", "Mickey"))
	if o := h1.Wait(); o.Status != StatusCommitted {
		t.Fatalf("Mickey = %+v", o)
	}
	if o := h2.Wait(); o.Status != StatusCommitted {
		t.Fatalf("Minnie = %+v", o)
	}
	rows := scanAll(t, e, "Reservations")
	if len(rows) != 2 || !rows[0][1].Equal(rows[1][1]) {
		t.Fatalf("rows = %v", rows)
	}
	if st := e.Stats(); st.GroupCommits != 0 {
		t.Errorf("GroupCommits = %d for -Q mode", st.GroupCommits)
	}
}

func TestManyPairsConcurrent(t *testing.T) {
	e := newTestEngine(t, Options{RunFrequency: 10, RetryInterval: 5 * time.Millisecond, Connections: 16})
	const pairs = 20
	var wg sync.WaitGroup
	outcomes := make([]Outcome, 2*pairs)
	for p := 0; p < pairs; p++ {
		a := fmt.Sprintf("a%d", p)
		b := fmt.Sprintf("b%d", p)
		for k, pr := range []Program{
			bookFlightProg(a, b, 5*time.Second),
			bookFlightProg(b, a, 5*time.Second),
		} {
			wg.Add(1)
			go func(slot int, pr Program) {
				defer wg.Done()
				outcomes[slot] = e.Submit(pr).Wait()
			}(2*p+k, pr)
		}
	}
	wg.Wait()
	for i, o := range outcomes {
		if o.Status != StatusCommitted {
			t.Fatalf("outcome[%d] = %+v", i, o)
		}
	}
	rows := scanAll(t, e, "Reservations")
	if len(rows) != 2*pairs {
		t.Fatalf("rows = %d, want %d", len(rows), 2*pairs)
	}
	// Each pair on a common flight.
	byName := make(map[string]types.Tuple)
	for _, r := range rows {
		byName[r[0].Str64()] = r
	}
	for p := 0; p < pairs; p++ {
		ra := byName[fmt.Sprintf("a%d", p)]
		rb := byName[fmt.Sprintf("b%d", p)]
		if ra == nil || rb == nil || !ra[1].Equal(rb[1]) {
			t.Fatalf("pair %d mismatched: %v vs %v", p, ra, rb)
		}
	}
}

func TestEngineCloseFailsPending(t *testing.T) {
	e := newTestEngine(t, Options{RunFrequency: 100, RetryInterval: time.Hour})
	h := e.Submit(bookFlightProg("Lonely", "Nobody", time.Hour))
	time.Sleep(10 * time.Millisecond)
	e.Close()
	o := h.Wait()
	if o.Status != StatusFailed || !errors.Is(o.Err, ErrEngineClosed) {
		t.Fatalf("outcome = %+v", o)
	}
	// Submitting after close fails immediately.
	h2 := e.Submit(bookFlightProg("Late", "Nobody", time.Second))
	if o := h2.Wait(); !errors.Is(o.Err, ErrEngineClosed) {
		t.Fatalf("outcome = %+v", o)
	}
}

func TestStatsAccounting(t *testing.T) {
	e := newTestEngine(t, Options{RunFrequency: 2})
	e.Submit(bookFlightProg("Mickey", "Minnie", time.Second))
	e.Submit(bookFlightProg("Minnie", "Mickey", time.Second)).Wait()
	st := e.Stats()
	if st.Submitted != 2 || st.Commits != 2 || st.Runs < 1 || st.EvalRounds < 1 {
		t.Errorf("stats = %+v", st)
	}
}

// recordingSink captures trace events for inspection.
type recordingSink struct {
	mu     sync.Mutex
	events []string
}

func (r *recordingSink) add(s string) {
	r.mu.Lock()
	r.events = append(r.events, s)
	r.mu.Unlock()
}
func (r *recordingSink) Read(tx uint64, obj string)          { r.add("R:" + obj) }
func (r *recordingSink) GroundingRead(tx uint64, obj string) { r.add("RG:" + obj) }
func (r *recordingSink) QuasiRead(tx uint64, obj string)     { r.add("RQ:" + obj) }
func (r *recordingSink) Write(tx uint64, obj string)         { r.add("W:" + obj) }
func (r *recordingSink) Entangle(op uint64, txs []uint64)    { r.add(fmt.Sprintf("E:%d", len(txs))) }
func (r *recordingSink) Commit(tx uint64)                    { r.add("C") }
func (r *recordingSink) Abort(tx uint64)                     { r.add("A") }

func (r *recordingSink) count(prefix string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.events {
		if len(e) >= len(prefix) && e[:len(prefix)] == prefix {
			n++
		}
	}
	return n
}

func TestTraceEvents(t *testing.T) {
	sink := &recordingSink{}
	e := newTestEngine(t, Options{RunFrequency: 2, Trace: sink})
	e.Submit(bookFlightProg("Mickey", "Minnie", time.Second))
	e.Submit(bookFlightProg("Minnie", "Mickey", time.Second)).Wait()
	if sink.count("RG:Flights") < 2 {
		t.Errorf("grounding reads on Flights = %d, want >= 2", sink.count("RG:Flights"))
	}
	if sink.count("RQ:Flights") < 2 {
		t.Errorf("quasi-reads on Flights = %d, want >= 2", sink.count("RQ:Flights"))
	}
	if sink.count("E:2") != 1 {
		t.Errorf("entangle ops = %d, want 1", sink.count("E:2"))
	}
	if sink.count("W:Reservations") != 2 {
		t.Errorf("writes = %d", sink.count("W:Reservations"))
	}
	if sink.count("C") != 2 {
		t.Errorf("commits = %d", sink.count("C"))
	}
}

// TestQuasiReadLockBlocksWriter: after Mickey and Minnie entangle (Minnie
// grounded on Airlines), Donald's write to Airlines must block until the
// group commits — the §3.3.3 enforcement that prevents the Figure 3(b)
// unrepeatable quasi-read.
func TestQuasiReadLockBlocksWriter(t *testing.T) {
	e := newTestEngine(t, Options{RunFrequency: 2})
	release := make(chan struct{})
	done := make(chan Outcome, 2)
	prog := func(me, them string) Program {
		return Program{
			Name:    me,
			Timeout: 5 * time.Second,
			Body: func(tx *Tx) error {
				q := flightQuery(me, them)
				if me == "Minnie" {
					// Minnie grounds on Airlines too (United only).
					q.Body = append(q.Body, eq.NewAtom("Airlines", eq.V("fno"), eq.V("al")))
					q.Where = append(q.Where, eq.Constraint{Left: eq.V("al"), Op: eq.OpEq, Right: eq.CStr("United")})
				}
				a := tx.Entangle(q)
				if a.Status != eq.Answered {
					return fmt.Errorf("status %v", a.Status)
				}
				if me == "Mickey" {
					<-release // hold the run open so locks stay held
				}
				_, err := tx.Insert("Reservations", types.Tuple{types.Str(me), a.Bindings["fno"], a.Bindings["fdate"]})
				return err
			},
		}
	}
	go func() { done <- e.Submit(prog("Mickey", "Minnie")).Wait() }()
	go func() { done <- e.Submit(prog("Minnie", "Mickey")).Wait() }()
	time.Sleep(100 * time.Millisecond) // entanglement happened; Mickey holds the run open

	// Donald writes a new United flight — the Figure 3(b) interference.
	wrote := make(chan Outcome, 1)
	go func() {
		wrote <- e.RunDirect(Program{
			Name:    "donald-write",
			Timeout: 5 * time.Second,
			Body: func(tx *Tx) error {
				_, err := tx.Insert("Airlines", types.Tuple{types.Int(125), types.Str("United")})
				return err
			},
		})
	}()
	select {
	case o := <-wrote:
		t.Fatalf("Donald's write proceeded against quasi-read locks: %+v", o)
	case <-time.After(150 * time.Millisecond):
		// blocked, as required
	}
	close(release)
	for i := 0; i < 2; i++ {
		if o := <-done; o.Status != StatusCommitted {
			t.Fatalf("traveler outcome = %+v", o)
		}
	}
	if o := <-wrote; o.Status != StatusCommitted {
		t.Fatalf("Donald eventually = %+v", o)
	}
}
