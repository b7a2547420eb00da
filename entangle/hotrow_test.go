package entangle

import (
	"fmt"
	"runtime/debug"
	"slices"
	"testing"
	"time"
)

// TestHotRowUpdateCostFlat pins one row's UPDATE cost against the length of
// its version history: with nothing vacuumed, an UPDATE of a row with
// 40,000 versions costs within 1.3x of one of a row with 1,000. A commit
// that walks the whole chain, rather than the committing transaction's
// tail, costs several times more at 40,000.
func TestHotRowUpdateCostFlat(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation swamps the per-update cost this compares")
	}
	db, err := Open(Options{RetryInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ExecDDL("CREATE TABLE Hot (id INT, n INT); CREATE INDEX hot_id ON Hot (id);"); err != nil {
		t.Fatal(err)
	}
	n := 0
	update := func(id int) {
		n++
		if _, err := db.Exec(fmt.Sprintf("UPDATE Hot SET n=%d WHERE id=%d", n, id)); err != nil {
			t.Fatal(err)
		}
	}
	const short, long = 1, 2
	for id, versions := range map[int]int{short: 1000, long: 40000} {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO Hot VALUES (%d, 0)", id)); err != nil {
			t.Fatal(err)
		}
		for range versions - 1 {
			update(id)
		}
	}
	// Batches alternate between the two rows, the order flipping each round,
	// so that both rows of a round see the same machine; the verdict is the
	// median over rounds of the long row's batch time over the short row's.
	// The collector is off while they run: a longer history is a larger
	// live heap, and the collector's pacing is not the per-update work
	// compared here.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	batch := func(id int) time.Duration {
		start := time.Now()
		for range 50 {
			update(id)
		}
		return time.Since(start) / 50
	}
	var ratios []float64
	var best [2]time.Duration
	for round := range 15 {
		var s, l time.Duration
		if round%2 == 0 {
			s, l = batch(short), batch(long)
		} else {
			l, s = batch(long), batch(short)
		}
		ratios = append(ratios, float64(l)/float64(s))
		if round == 0 || s < best[0] {
			best[0] = s
		}
		if round == 0 || l < best[1] {
			best[1] = l
		}
	}
	slices.Sort(ratios)
	ratio := ratios[len(ratios)/2]
	t.Logf("UPDATE of one row: best %v at ~1,000 versions, %v at ~40,000; median ratio %.2f", best[0], best[1], ratio)
	if ratio > 1.3 {
		t.Errorf("UPDATE at 40,000 versions costs %.2fx one at 1,000 (median of %d rounds); want at most 1.3x", ratio, len(ratios))
	}
}
