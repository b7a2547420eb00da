package entangle

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dist"
	"repro/internal/storage"
	"repro/internal/wal"
)

// shardNet joins two DBs and a matchmaker in-process on one fake clock.
// Prepares to the node in hold wait until the channel closes, so the
// other member sits parked prepared meanwhile.
type shardNet struct {
	mm   *dist.Matchmaker
	dbs  map[string]*DB
	hold map[string]chan struct{}
}

func (n *shardNet) Prepare(node string, p dist.Prepare) error {
	if ch := n.hold[node]; ch != nil {
		<-ch
	}
	n.dbs[node].DeliverPrepare(p)
	return nil
}

func (n *shardNet) Decide(node string, d dist.Decide) error {
	n.dbs[node].ApplyDecision(d.Group, d.Commit)
	return nil
}

type shardLink struct{ net *shardNet }

func (l shardLink) Offer(o dist.Offer)                       { l.net.mm.AddOffer(&o) }
func (l shardLink) Vote(v dist.Vote)                         { l.net.mm.HandleVote(v) }
func (l shardLink) Status(group uint64) (dist.Status, error) { return l.net.mm.Decision(group), nil }

// TestCheckpointDoesNotWaitForLiveWork: Checkpoint returns while an
// interactive BEGIN block is open, a cross-shard member is parked prepared
// and a direct transaction is mid-body, and all three then commit. A crash
// right after the checkpoint keeps the parked member in doubt; a clean
// restart after the commits, and a checkpoint from a program body, has
// every row.
func TestCheckpointDoesNotWaitForLiveWork(t *testing.T) {
	clk := clock.NewFake(time.Now())
	path := filepath.Join(t.TempDir(), "a.wal")
	opts := Options{Path: path, Clock: clk, RetryInterval: time.Hour}
	a, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(Options{Clock: clk, RetryInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	holdB := make(chan struct{})
	net := &shardNet{dbs: map[string]*DB{"A": a, "B": b}, hold: map[string]chan struct{}{"B": holdB}}
	net.mm = dist.New(dist.Options{Send: net, Clock: clk, Log: a.LogDecision})
	defer net.mm.Close()
	a.EnableDist(DistConfig{Shard: 0, Node: "A", Transport: shardLink{net}})
	b.EnableDist(DistConfig{Shard: 1, Node: "B", Transport: shardLink{net}})
	for _, db := range []*DB{a, b} {
		if err := db.ExecDDL(`CREATE TABLE Flights (fno INT, fdate DATE, dest VARCHAR);
			CREATE TABLE Bookings (name VARCHAR, fno INT, fdate DATE);
			CREATE TABLE Notes (who VARCHAR);`); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec(`INSERT INTO Flights VALUES (122, '2011-05-03', 'LA')`); err != nil {
			t.Fatal(err)
		}
	}

	// A's member prepares and parks; B's prepare is held in transit.
	ha, err := a.SubmitScript(pairScript("A", "B"))
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.SubmitScript(pairScript("B", "A"))
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); a.Engine().Parked() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("A's member never parked prepared")
		}
	}
	sess := a.Interactive()
	if _, err := sess.Exec("BEGIN; INSERT INTO Notes VALUES ('block');"); err != nil {
		t.Fatal(err)
	}
	inBody, release := make(chan struct{}), make(chan struct{})
	direct := make(chan Outcome, 1)
	go func() {
		direct <- a.RunDirect(Program{Body: func(tx *Tx) error {
			if _, err := tx.Insert("Notes", Values(Str("direct"))); err != nil {
				return err
			}
			close(inBody)
			<-release
			return nil
		}})
	}()
	<-inBody

	done := make(chan error, 1)
	go func() { done <- a.Checkpoint() }()
	close(release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Checkpoint waited for the open block, the parked member or the direct transaction")
	}
	if o := <-direct; o.Status != StatusCommitted {
		t.Fatalf("direct transaction: %+v", o)
	}

	// A crash now: the parked member is in doubt, with its booking withheld.
	crashed := filepath.Join(t.TempDir(), "a.wal")
	for _, name := range []string{path, wal.SnapshotPath(path)} {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(crashed+name[len(path):], data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := wal.RecoverAll(crashed, storage.NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.InDoubt) != 1 || len(st.InDoubtRecords) != 1 {
		t.Fatalf("crash after the checkpoint: in doubt %v, want the parked member", st.InDoubt)
	}

	if _, err := sess.Exec("COMMIT;"); err != nil {
		t.Fatal(err)
	}
	close(holdB)
	if o := ha.Wait(); o.Status != StatusCommitted {
		t.Fatalf("A: %+v", o)
	}
	if o := hb.Wait(); o.Status != StatusCommitted {
		t.Fatalf("B: %+v", o)
	}
	// A program body may checkpoint, too.
	if o := a.RunDirect(Program{Body: func(*Tx) error { return a.Checkpoint() }}); o.Status != StatusCommitted {
		t.Fatalf("checkpoint from a program body: %+v", o)
	}
	a.Close()

	a2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	if n := len(a2.InDoubt()); n != 0 {
		t.Fatalf("%d transactions in doubt after the decision", n)
	}
	for q, want := range map[string]int{"SELECT who FROM Notes": 2, "SELECT name FROM Bookings": 1} {
		res, err := a2.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != want {
			t.Fatalf("%s: %d rows after restart, want %d", q, len(res.Rows), want)
		}
	}
}
