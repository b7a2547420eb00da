package lock

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func table(name string) TableRow        { return TableRow{Table: name, Row: AllRows} }
func row(name string, r int64) TableRow { return TableRow{Table: name, Row: r} }

func TestCompatibilityMatrix(t *testing.T) {
	// Spot-check the classical matrix.
	cases := []struct {
		a, b Mode
		ok   bool
	}{
		{IS, IS, true}, {IS, IX, true}, {IS, S, true}, {IS, X, false},
		{IX, IX, true}, {IX, S, false}, {IX, X, false},
		{S, S, true}, {S, X, false},
		{X, X, false},
	}
	for _, c := range cases {
		if compatible[c.a][c.b] != c.ok {
			t.Errorf("compat[%v][%v] = %v, want %v", c.a, c.b, compatible[c.a][c.b], c.ok)
		}
		if compatible[c.b][c.a] != c.ok {
			t.Errorf("matrix not symmetric at [%v][%v]", c.b, c.a)
		}
	}
}

func TestSharedLocksCoexist(t *testing.T) {
	m := New(0)
	if err := m.Acquire(1, table("Flights"), S); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, table("Flights"), S); err != nil {
		t.Fatal(err)
	}
	if !m.Holds(1, table("Flights"), S) || !m.Holds(2, table("Flights"), S) {
		t.Fatal("both transactions should hold S")
	}
}

func TestExclusiveBlocksAndReleaseWakes(t *testing.T) {
	m := New(0)
	if err := m.Acquire(1, table("Flights"), X); err != nil {
		t.Fatal(err)
	}
	var got int32
	done := make(chan error, 1)
	go func() {
		err := m.Acquire(2, table("Flights"), X)
		atomic.StoreInt32(&got, 1)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if atomic.LoadInt32(&got) != 0 {
		t.Fatal("second X granted while first held")
	}
	m.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !m.Holds(2, table("Flights"), X) {
		t.Fatal("waiter not granted after release")
	}
}

func TestReentrantAndCoverage(t *testing.T) {
	m := New(0)
	if err := m.Acquire(1, table("T"), X); err != nil {
		t.Fatal(err)
	}
	// X covers S, IS, IX and re-acquiring X is a no-op.
	for _, mode := range []Mode{X, S, IS, IX} {
		if err := m.Acquire(1, table("T"), mode); err != nil {
			t.Fatalf("re-entrant %v: %v", mode, err)
		}
	}
	if m.HeldCount(1) != 1 {
		t.Errorf("HeldCount = %d", m.HeldCount(1))
	}
}

func TestIntentionModesOnRowRejected(t *testing.T) {
	m := New(0)
	if err := m.Acquire(1, row("T", 5), IS); err == nil {
		t.Fatal("IS on a row accepted")
	}
	if err := m.Acquire(1, row("T", 5), IX); err == nil {
		t.Fatal("IX on a row accepted")
	}
}

func TestHierarchicalTableVsRow(t *testing.T) {
	m := New(0)
	// Writer: IX on table + X on row 1.
	if err := m.Acquire(1, table("T"), IX); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(1, row("T", 1), X); err != nil {
		t.Fatal(err)
	}
	// Reader of a different row: IS on table + S on row 2 — allowed.
	if err := m.Acquire(2, table("T"), IS); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, row("T", 2), S); err != nil {
		t.Fatal(err)
	}
	// Full-table S reader conflicts with the IX writer.
	blocked := make(chan error, 1)
	go func() { blocked <- m.Acquire(3, table("T"), S) }()
	select {
	case err := <-blocked:
		t.Fatalf("table S granted against IX holder: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1)
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := New(0)
	if err := m.Acquire(1, table("A"), X); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, table("B"), X); err != nil {
		t.Fatal(err)
	}
	// tx1 waits for B (held by tx2).
	errCh := make(chan error, 1)
	go func() { errCh <- m.Acquire(1, table("B"), X) }()
	time.Sleep(20 * time.Millisecond)
	// tx2 requests A (held by tx1): cycle, tx2 is the victim.
	err := m.Acquire(2, table("A"), X)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	_, _, dl := m.Stats()
	if dl != 1 {
		t.Errorf("deadlocks = %d", dl)
	}
	// Victim releases; tx1 proceeds.
	m.ReleaseAll(2)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

func TestThreeWayDeadlock(t *testing.T) {
	m := New(0)
	for tx := uint64(1); tx <= 3; tx++ {
		if err := m.Acquire(tx, table(string(rune('A'+tx-1))), X); err != nil {
			t.Fatal(err)
		}
	}
	// 1 waits for B, 2 waits for C, then 3 requesting A closes the cycle.
	go m.Acquire(1, table("B"), X)
	time.Sleep(10 * time.Millisecond)
	go m.Acquire(2, table("C"), X)
	time.Sleep(10 * time.Millisecond)
	if err := m.Acquire(3, table("A"), X); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	m.ReleaseAll(3)
	m.ReleaseAll(2)
	m.ReleaseAll(1)
}

func TestWaitTimeout(t *testing.T) {
	m := New(50 * time.Millisecond)
	if err := m.Acquire(1, table("T"), X); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := m.Acquire(2, table("T"), X)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Errorf("returned too early: %v", elapsed)
	}
}

// TestFailedRequestsLeaveNoEntry: a request fails — a TryAcquire that
// would block, a wait that times out, a deadlock victim — only while
// another transaction holds or waits for the object, so the failure adds no
// entry to the lock table, and the last holder's release removes it.
func TestFailedRequestsLeaveNoEntry(t *testing.T) {
	m := New(time.Millisecond)
	const rows = 1000
	for i := 0; i < rows; i++ {
		if err := m.Acquire(1, TableRow{Table: "T", Row: int64(i)}, X); err != nil {
			t.Fatal(err)
		}
	}
	held := m.entryCount()
	for i := 0; i < rows; i++ {
		if err := m.TryAcquire(2, TableRow{Table: "T", Row: int64(i)}, S); !errors.Is(err, ErrWouldBlock) {
			t.Fatalf("row %d: %v, want ErrWouldBlock", i, err)
		}
	}
	if err := m.Acquire(2, TableRow{Table: "T", Row: 0}, S); !errors.Is(err, ErrTimeout) {
		t.Fatalf("wait: %v, want ErrTimeout", err)
	}
	if n := m.entryCount(); n != held {
		t.Fatalf("%d entries after the failed requests, want the %d held", n, held)
	}
	m.ReleaseAll(1)
	if n := m.entryCount(); n != 0 {
		t.Fatalf("%d entries after the release", n)
	}

	m = New(0)
	if err := m.Acquire(1, table("A"), X); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, table("B"), X); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- m.Acquire(1, table("B"), X) }()
	for {
		if _, waits, _ := m.Stats(); waits == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Acquire(2, table("A"), X); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	m.ReleaseAll(2)
	if err := <-waited; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(1)
	if n := m.entryCount(); n != 0 {
		t.Fatalf("%d entries with no holder and no waiter", n)
	}
}

func TestReleaseSharedKeepsExclusive(t *testing.T) {
	m := New(0)
	if err := m.Acquire(1, table("T"), IX); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(1, row("T", 1), X); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(1, table("U"), S); err != nil {
		t.Fatal(err)
	}
	m.ReleaseShared(1)
	if m.Holds(1, table("U"), S) {
		t.Error("S lock survived ReleaseShared")
	}
	if !m.Holds(1, row("T", 1), X) {
		t.Error("X lock dropped by ReleaseShared")
	}
	if !m.Holds(1, table("T"), IX) {
		t.Error("IX lock dropped by ReleaseShared")
	}
	// Another reader can now take U.
	if err := m.Acquire(2, table("U"), X); err != nil {
		t.Fatal(err)
	}
}

func TestLockUpgrade(t *testing.T) {
	m := New(0)
	if err := m.Acquire(1, table("T"), S); err != nil {
		t.Fatal(err)
	}
	// Sole holder upgrades S -> X immediately.
	if err := m.Acquire(1, table("T"), X); err != nil {
		t.Fatal(err)
	}
	if !m.Holds(1, table("T"), X) {
		t.Fatal("upgrade failed")
	}
}

func TestUpgradeWaitsForOtherReaders(t *testing.T) {
	m := New(0)
	m.Acquire(1, table("T"), S)
	m.Acquire(2, table("T"), S)
	done := make(chan error, 1)
	go func() { done <- m.Acquire(1, table("T"), X) }()
	select {
	case <-done:
		t.Fatal("upgrade granted while another reader holds S")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(2)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestReleaseAllUnknownTxIsNoop(t *testing.T) {
	m := New(0)
	m.ReleaseAll(42) // must not panic
	m.ReleaseShared(42)
}

func TestConcurrentStress(t *testing.T) {
	// Many goroutines locking random rows in a fixed order (no deadlock by
	// ordering); verify mutual exclusion with a shadow counter per row.
	m := New(0)
	const rows = 8
	counters := make([]int64, rows)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(tx uint64) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r := int64(i % rows)
				if err := m.Acquire(tx, table("T"), IX); err != nil {
					t.Error(err)
					return
				}
				if err := m.Acquire(tx, row("T", r), X); err != nil {
					t.Error(err)
					return
				}
				c := atomic.AddInt64(&counters[r], 1)
				if c != 1 {
					t.Errorf("mutual exclusion violated on row %d", r)
				}
				atomic.AddInt64(&counters[r], -1)
				m.ReleaseAll(tx)
			}
		}(uint64(g + 1))
	}
	wg.Wait()
}

func TestStatsCount(t *testing.T) {
	m := New(0)
	m.Acquire(1, table("T"), S)
	m.Acquire(2, table("T"), S)
	acq, _, _ := m.Stats()
	if acq != 2 {
		t.Errorf("acquisitions = %d", acq)
	}
}

// TestTryAcquireNeverQueues: TryAcquire grants exactly when Acquire would
// grant at once — free objects, compatible holders, re-entrant covers,
// upgrades past a queued waiter — and otherwise refuses with ErrWouldBlock,
// leaving nothing queued and counting no wait. The case that matters: an S
// request behind a queued IX is refused even though every holder is S.
func TestTryAcquireNeverQueues(t *testing.T) {
	m := New(0)
	if err := m.TryAcquire(1, table("Flights"), S); err != nil {
		t.Fatalf("free table: %v", err)
	}
	if err := m.TryAcquire(1, table("Flights"), IS); err != nil {
		t.Fatalf("covered by S: %v", err)
	}
	queued := make(chan error, 1)
	go func() { queued <- m.Acquire(2, table("Flights"), IX) }()
	for {
		if _, waits, _ := m.Stats(); waits == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.TryAcquire(3, table("Flights"), S); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("S behind a queued IX: %v, want ErrWouldBlock", err)
	}
	if err := m.TryAcquire(3, table("Hotels"), X); err != nil {
		t.Fatalf("another table: %v", err)
	}
	if err := m.TryAcquire(1, table("Flights"), X); err != nil {
		t.Fatalf("upgrade past the queue (Acquire grants it at once too): %v", err)
	}
	if _, waits, _ := m.Stats(); waits != 1 {
		t.Fatalf("waits = %d, want only the queued IX's", waits)
	}
	if m.Holds(3, table("Flights"), S) {
		t.Fatal("refused request was granted")
	}
	m.ReleaseAll(1)
	if err := <-queued; err != nil {
		t.Fatalf("queued IX: %v", err)
	}
	if err := m.TryAcquire(3, row("Flights", 7), IX); err == nil {
		t.Fatal("intention mode on a row accepted")
	}
}
