package server

import (
	"net"
	"reflect"
	"testing"

	"repro/entangle"
	"repro/internal/wire"
)

// The stats frame and the registry counter names are read by bench/ and the
// shell; the vocabulary and its order are pinned byte for byte to what the
// field-by-field StatsSnapshot copy produced before core.Stats carried the
// JSON tags itself.
func TestStatsFrameAndRegistryVocabularyPinned(t *testing.T) {
	const idleFrame = `{"submitted":0,"runs":0,"eval_rounds":0,"commits":0,"group_commits":0,"commit_batches":0,` +
		`"entangle_ops":0,"requeues":0,"timeouts":0,"rollbacks":0,"failures":0,"widows_averted":0,` +
		`"write_conflicts":0,"vacuums":0,"versions_pruned":0,"ground_cache_hits":0,"ground_cache_misses":0,` +
		`"indexed_groundings":0,"ground_rows_streamed":0,"ground_peak_batch_rows":0,"solve_steps":0,` +
		`"solve_fallbacks":0,"sheds":0,"retries":0,"reconnects":0,"faults_injected":0}`
	addr, _ := startServer(t, entangle.Options{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// No hello: an anonymous raw connection, so the frame arrives as sent.
	if err := wire.WriteFrame(nc, wire.Request{ID: 1, Op: wire.OpStats}); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := wire.ReadInto(nc, &resp); err != nil || !resp.OK {
		t.Fatalf("stats: %v %+v", err, resp)
	}
	if got := string(resp.Body); got != idleFrame {
		t.Errorf("idle stats frame changed:\n got %s\nwant %s", got, idleFrame)
	}

	db, err := entangle.Open(entangle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := []string{"commit_batches", "commits", "entangle_ops", "eval_rounds", "failures",
		"ground_cache_hits", "ground_cache_misses", "ground_peak_batch_rows", "ground_rows_streamed",
		"group_commits", "indexed_groundings", "requeues", "rollbacks", "runs", "solve_fallbacks",
		"solve_steps", "submitted", "timeouts", "vacuums", "versions_pruned", "widows_averted",
		"write_conflicts"}
	if got := db.Metrics().Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("engine registry counter names changed:\n got %q\nwant %q", got, want)
	}
}
