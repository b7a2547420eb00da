package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/entangle"
	"repro/internal/eq"
	"repro/internal/types"
	"repro/internal/workload"
)

// TestSelectionMatchesWholePoolRuns checks the arrival selection rule
// against §4 on seeded submission sequences drawn from internal/workload:
// pairs (some with late partners), cycles and spoke-hubs of up to five
// members (the hubs pose one entangled query per spoke), loners, bodies that
// read tables before entangling — User for the hometown, and Choice for the
// partner's name — and classical writes to the tables those bodies and
// queries read, including writes to Flight.fid, a column the rendezvous
// queries do not read (the chooser's does). Engine A runs every arrival
// with the selection rule and no tick; engine B gives every arrival a
// whole-pool run (a Flush after each Submit). After every step A must have
// committed exactly what B has — a member the selection stranded shows up
// as the step where A falls behind — and after a final Flush both hold the
// same Reserve rows.
// Competing structures stay out: their tie-break depends on pool order.
func TestSelectionMatchesWholePoolRuns(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			d, err := workload.NewDataset(workload.Config{Users: 300, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			steps := drawSteps(t, d, rand.New(rand.NewSource(seed)))
			a := openEquiv(t, d, entangle.Options{})
			b := openEquiv(t, d, entangle.Options{RunFrequency: 1 << 30})
			var ha, hb []*entangle.Handle
			for i, s := range steps {
				if s.write != "" {
					for _, db := range []*entangle.DB{a, b} {
						if _, err := db.Exec(s.write); err != nil {
							t.Fatalf("step %d %q: %v", i, s.write, err)
						}
					}
					continue
				}
				ha, hb = append(ha, a.Submit(s.prog)), append(hb, b.Submit(s.prog))
				b.Flush()
				runs := int64(len(ha))
				waitFor(t, fmt.Sprintf("step %d: A's arrival run", i), func() bool { return a.Stats().Runs == runs })
				want := committed(hb)
				waitFor(t, fmt.Sprintf("step %d: A to commit %v (has %v)", i, want, committed(ha)),
					func() bool { return slices.Equal(committed(ha), want) })
			}
			a.Flush()
			b.Flush()
			if ca, cb := committed(ha), committed(hb); !slices.Equal(ca, cb) {
				t.Fatalf("after the final Flush: A committed %v, B %v", ca, cb)
			}
			if ra, rb := reserveRows(t, a), reserveRows(t, b); !slices.Equal(ra, rb) {
				t.Fatalf("Reserve differs:\nA %v\nB %v", ra, rb)
			}
		})
	}
}

// equivStep is a submission or, with write set, a classical statement.
type equivStep struct {
	prog  entangle.Program
	write string
}

// drawSteps draws a dozen coordination units and interleaves them at
// random, each unit's members in their own order.
func drawSteps(t *testing.T, d *workload.Dataset, rng *rand.Rand) []equivStep {
	t.Helper()
	var units [][]equivStep
	add := func(progs ...entangle.Program) {
		var u []equivStep
		for _, p := range progs {
			u = append(u, equivStep{prog: p})
		}
		units = append(units, u)
	}
	for gid := 0; gid < 12; gid++ {
		switch rng.Intn(7) {
		case 0, 1:
			u, v := d.NextPair()
			add(d.Entangled(workload.EntangledT, u, v), d.Entangled(workload.EntangledT, v, u))
		case 2:
			orphan, _ := d.OrphanPair()
			add(orphan)
		case 3, 4:
			s := workload.Cycle
			if rng.Intn(2) == 0 {
				s = workload.SpokeHub
			}
			progs, err := d.BuildStructure(s, 2+rng.Intn(4), gid)
			if err != nil {
				t.Fatal(err)
			}
			rng.Shuffle(len(progs), func(i, j int) { progs[i], progs[j] = progs[j], progs[i] })
			add(progs...)
		case 5:
			write := fmt.Sprintf("UPDATE User SET hometown='%s' WHERE uid=%d",
				workload.CityName(rng.Intn(8)), d.RandomUser())
			switch rng.Intn(3) {
			case 0:
				write = fmt.Sprintf("INSERT INTO Flight VALUES ('%s', 'NEW%d', %d)",
					workload.CityName(rng.Intn(8)), gid, 9000+gid)
			case 1:
				write = fmt.Sprintf("UPDATE Flight SET fid=%d WHERE source='%s'",
					9500+gid, workload.CityName(rng.Intn(8)))
			}
			units = append(units, []equivStep{{write: write}})
		case 6:
			// u reads its partner from Choice, which first names a user who
			// never comes; w waits for u. The update that names w may land
			// before u runs, or while both sit dormant after failing to meet.
			u, w := d.NextPair()
			rest := []equivStep{
				{prog: chooser(u)},
				{prog: d.Entangled(workload.EntangledT, w, u)},
				{write: fmt.Sprintf("UPDATE Choice SET partner=%d WHERE uid=%d", w, u)},
			}
			rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
			units = append(units, append([]equivStep{{write: fmt.Sprintf("INSERT INTO Choice VALUES (%d, 100000)", u)}}, rest...))
		}
	}
	var steps []equivStep
	for len(units) > 0 {
		i := rng.Intn(len(units))
		steps = append(steps, units[i][0])
		if units[i] = units[i][1:]; len(units[i]) == 0 {
			units = append(units[:i], units[i+1:]...)
		}
	}
	return steps
}

// chooser is the workload's rendezvous booking for uid, except that the
// partner is read from Choice before entangling.
func chooser(uid int) entangle.Program {
	return entangle.Program{Name: "chooser", Timeout: workload.DefaultTimeout, Body: func(tx *entangle.Tx) error {
		users, err := tx.Lookup("User", []string{"uid"}, entangle.Values(types.Int(int64(uid))))
		if err != nil {
			return err
		}
		choice, err := tx.Lookup("Choice", []string{"uid"}, entangle.Values(types.Int(int64(uid))))
		if err != nil {
			return err
		}
		a := tx.Entangle(&eq.Query{
			Head:   []eq.Atom{eq.NewAtom("Rendezvous", eq.CInt(int64(uid)), eq.V("dest"))},
			Post:   []eq.Atom{eq.NewAtom("Rendezvous", eq.C(choice[0][1]), eq.V("dest"))},
			Body:   []eq.Atom{eq.NewAtom("Flight", eq.V("src"), eq.V("dest"), eq.V("fid"))},
			Where:  []eq.Constraint{{Left: eq.V("src"), Op: eq.OpEq, Right: eq.C(users[0][1])}},
			Choose: 1,
		})
		if a.Status != eq.Answered {
			return fmt.Errorf("chooser %d: %v", uid, a.Status)
		}
		_, err = tx.Insert("Reserve", entangle.Values(types.Int(int64(uid)), a.Bindings["fid"]))
		return err
	}}
}

func openEquiv(t *testing.T, d *workload.Dataset, opts entangle.Options) *entangle.DB {
	t.Helper()
	opts.RetryInterval = time.Hour // no tick: runs happen on arrivals and Flush only
	db, err := entangle.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := d.Setup(db); err != nil {
		t.Fatal(err)
	}
	if err := db.ExecDDL("CREATE TABLE Choice (uid INT, partner INT)"); err != nil {
		t.Fatal(err)
	}
	return db
}

// committed lists the indices of the handles that settled committed; a
// handle that settled any other way fails the caller's comparison too.
func committed(hs []*entangle.Handle) []int {
	var out []int
	for i, h := range hs {
		if o, ok := h.Poll(); ok {
			if o.Status != entangle.StatusCommitted {
				return append(out, -1-i)
			}
			out = append(out, i)
		}
	}
	return out
}

func reserveRows(t *testing.T, db *entangle.DB) []string {
	t.Helper()
	res, err := db.Query("SELECT uid, fid FROM Reserve")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, r := range res.Rows {
		out = append(out, fmt.Sprint(r))
	}
	slices.Sort(out)
	return out
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
