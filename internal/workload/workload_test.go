package workload

import (
	"sync"
	"testing"

	"repro/entangle"
)

func testDataset(t *testing.T) (*Dataset, *entangle.DB) {
	t.Helper()
	d, err := NewDataset(Config{Users: 300, Cities: 4, Destinations: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	db, err := entangle.Open(entangle.Options{RunFrequency: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := d.Setup(db); err != nil {
		t.Fatal(err)
	}
	return d, db
}

func runAll(t *testing.T, db *entangle.DB, progs []entangle.Program) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]entangle.Outcome, len(progs))
	for i, p := range progs {
		wg.Add(1)
		go func(i int, p entangle.Program) {
			defer wg.Done()
			if p.Autocommit && !hasEntangle(p) {
				errs[i] = db.RunDirect(p)
				return
			}
			if hasEntangle(p) {
				errs[i] = db.Submit(p).Wait()
			} else {
				errs[i] = db.RunDirect(p)
			}
		}(i, p)
	}
	wg.Wait()
	for i, o := range errs {
		if o.Status != entangle.StatusCommitted {
			t.Fatalf("program %d (%s): %+v", i, progs[i].Name, o)
		}
	}
}

// hasEntangle approximates "routes through the scheduler" by name.
func hasEntangle(p entangle.Program) bool {
	return p.Name == "Entangled-T" || p.Name == "Entangled-Q" ||
		p.Name == "hub" || p.Name == "spoke" || p.Name == "cycle"
}

func TestDatasetDeterministic(t *testing.T) {
	a, err := NewDataset(Config{Users: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewDataset(Config{Users: 100, Seed: 3})
	for i := 0; i < 10; i++ {
		au, av := a.NextPair()
		bu, bv := b.NextPair()
		if au != bu || av != bv {
			t.Fatalf("pair %d differs: (%d,%d) vs (%d,%d)", i, au, av, bu, bv)
		}
	}
}

func TestSetupSeedsSchema(t *testing.T) {
	d, db := testDataset(t)
	users, err := db.Query("SELECT uid FROM User")
	if err != nil {
		t.Fatal(err)
	}
	if len(users.Rows) != 300 {
		t.Fatalf("users = %d", len(users.Rows))
	}
	flights, _ := db.Query("SELECT fid FROM Flight")
	if len(flights.Rows) != d.Config().Cities*d.Config().Destinations {
		t.Fatalf("flights = %d", len(flights.Rows))
	}
	// Friendship is symmetric in the table.
	fr, _ := db.Query("SELECT uid1, uid2 FROM Friends")
	if len(fr.Rows) != 2*len(d.Graph.Edges()) {
		t.Fatalf("friends rows = %d, edges = %d", len(fr.Rows), len(d.Graph.Edges()))
	}
}

func TestPairsShareHometown(t *testing.T) {
	d, _ := NewDataset(Config{Users: 300, Cities: 4, Seed: 5})
	for i := 0; i < 50; i++ {
		u, v := d.NextPair()
		if d.Hometown[u] != d.Hometown[v] {
			t.Fatalf("pair (%d,%d) in different towns", u, v)
		}
	}
}

func TestNoSocialWorkloads(t *testing.T) {
	d, db := testDataset(t)
	runAll(t, db, d.Batch(NoSocialT, 10))
	runAll(t, db, d.Batch(NoSocialQ, 10))
	n, err := VerifyReserve(db)
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("reservations = %d", n)
	}
}

func TestSocialWorkloads(t *testing.T) {
	d, db := testDataset(t)
	runAll(t, db, d.Batch(SocialT, 10))
	runAll(t, db, d.Batch(SocialQ, 10))
	if n, err := VerifyReserve(db); err != nil || n != 20 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestEntangledWorkloadPairsCommit(t *testing.T) {
	d, db := testDataset(t)
	runAll(t, db, d.Batch(EntangledT, 10))
	if n, err := VerifyReserve(db); err != nil || n != 10 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	st := db.Stats()
	if st.GroupCommits != 5 {
		t.Errorf("GroupCommits = %d, want 5", st.GroupCommits)
	}
	// Coordinated pairs booked flights to the same destination: Reserve
	// rows come in pairs with equal fid.
	res, _ := db.Query("SELECT uid, fid FROM Reserve")
	fidCount := make(map[int64]int)
	for _, r := range res.Rows {
		fidCount[r[1].Int64()]++
	}
	odd := 0
	for _, c := range fidCount {
		if c%2 == 1 {
			odd++
		}
	}
	if odd > 0 {
		t.Errorf("%d flights booked an odd number of times; pairs did not coordinate", odd)
	}
}

func TestEntangledQWorkload(t *testing.T) {
	d, db := testDataset(t)
	runAll(t, db, d.Batch(EntangledQ, 6))
	if n, err := VerifyReserve(db); err != nil || n != 6 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if st := db.Stats(); st.GroupCommits != 0 {
		t.Errorf("-Q workload performed group commits: %d", st.GroupCommits)
	}
}

func TestBatchEntangledIsEvenAndPaired(t *testing.T) {
	d, _ := NewDataset(Config{Users: 300, Cities: 4, Seed: 9})
	b := d.Batch(EntangledT, 7)
	if len(b)%2 != 0 || len(b) < 7 {
		t.Fatalf("batch size = %d", len(b))
	}
}

func TestSpokeHubStructure(t *testing.T) {
	d, db := testDataset(t)
	for _, k := range []int{2, 4, 6} {
		progs, err := d.BuildStructure(SpokeHub, k, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(progs) != k {
			t.Fatalf("programs = %d, want %d", len(progs), k)
		}
		runAll(t, db, progs)
	}
	if _, err := VerifyReserve(db); err != nil {
		t.Fatal(err)
	}
}

func TestCycleStructure(t *testing.T) {
	d, db := testDataset(t)
	for _, k := range []int{2, 3, 5} {
		progs, err := d.BuildStructure(Cycle, k, 100+k)
		if err != nil {
			t.Fatal(err)
		}
		runAll(t, db, progs)
	}
	if _, err := VerifyReserve(db); err != nil {
		t.Fatal(err)
	}
}

func TestStructureErrors(t *testing.T) {
	d, _ := NewDataset(Config{Users: 300, Cities: 4, Seed: 9})
	if _, err := d.BuildStructure(Cycle, 1, 0); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := d.BuildStructure(Structure(99), 3, 0); err == nil {
		t.Error("unknown structure accepted")
	}
}

func TestOrphanPairBlocksThenCompletes(t *testing.T) {
	d, db := testDataset(t)
	u, v := d.NextPair()
	orphan, partner := d.Entangled(EntangledT, u, v), d.Entangled(EntangledT, v, u)
	h1 := db.Submit(orphan)
	db.Flush() // orphan runs alone and returns to the pool
	h2 := db.Submit(partner)
	if o := h1.Wait(); o.Status != entangle.StatusCommitted {
		t.Fatalf("orphan: %+v", o)
	}
	if o := h2.Wait(); o.Status != entangle.StatusCommitted {
		t.Fatalf("partner: %+v", o)
	}
	if o := h1.Wait(); o.Attempts < 2 {
		t.Errorf("orphan attempts = %d, want >= 2", o.Attempts)
	}
}

func TestKindStringsAndPredicates(t *testing.T) {
	cases := map[Kind]string{
		NoSocialT: "NoSocial-T", SocialT: "Social-T", EntangledT: "Entangled-T",
		NoSocialQ: "NoSocial-Q", SocialQ: "Social-Q", EntangledQ: "Entangled-Q",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%v != %s", k, want)
		}
	}
	if !EntangledT.Entangled() || NoSocialT.Entangled() {
		t.Error("Entangled() predicate wrong")
	}
	if !NoSocialQ.Autocommit() || SocialT.Autocommit() {
		t.Error("Autocommit() predicate wrong")
	}
}
