package server

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"repro/entangle"
	"repro/entangle/client"
	"repro/internal/obs"
)

// The PR 9 acceptance scenario: a traced pair coordination across two TCP
// clients produces ONE trace — the two minted ids merge when the queries
// entangle — and its span tree shows both members' submit → ground →
// commit lifecycles. The trace is asserted through /traces/recent, the
// same endpoint -debug-addr serves.
func TestTracedPairMergesIntoOneTrace(t *testing.T) {
	tracer := obs.NewTracer(obs.TracerOptions{})
	reg := obs.NewRegistry()
	addr, db := startServer(t, entangle.Options{RunFrequency: 2, Metrics: reg, Tracer: tracer})

	mickey, err := client.DialOptions(addr, client.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mickey.Close()
	minnie, err := client.DialOptions(addr, client.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	defer minnie.Close()
	setupFlights(t, mickey)

	// The ids are minted here: the second submit's response may already
	// carry the merged id, so it cannot report the id that was sent.
	mint1, mint2 := obs.MintID(), obs.MintID()
	if mint1 == 0 || mint2 == 0 || mint1 == mint2 {
		t.Fatalf("minted trace ids: %d / %d", mint1, mint2)
	}
	h1, err := mickey.SubmitScriptTraced(flightPair("Mickey", "Minnie"), mint1)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := minnie.SubmitScriptTraced(flightPair("Minnie", "Mickey"), mint2)
	if err != nil {
		t.Fatal(err)
	}
	if o := h1.Wait(); o.Status != entangle.StatusCommitted {
		t.Fatalf("Mickey: %+v", o)
	}
	if o := h2.Wait(); o.Status != entangle.StatusCommitted {
		t.Fatalf("Minnie: %+v", o)
	}

	// After the outcomes, both handles report the same canonical id — the
	// traces merged when the pair entangled.
	canon := h1.TraceID()
	if canon == 0 || canon != h2.TraceID() {
		t.Fatalf("canonical ids diverge: %d vs %d", canon, h2.TraceID())
	}
	if canon != mint1 && canon != mint2 {
		t.Fatalf("canonical id %d is neither minted id (%d, %d)", canon, mint1, mint2)
	}

	// Assert through the debug HTTP surface, exactly as `youtopia-serve
	// -debug-addr` exposes it.
	hs := httptest.NewServer(obs.DebugMux(db.Metrics(), db.Tracer(), nil))
	defer hs.Close()
	res, err := hs.Client().Get(hs.URL + "/traces/recent")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var recent []obs.Trace
	if err := json.NewDecoder(res.Body).Decode(&recent); err != nil {
		t.Fatal(err)
	}
	var found *obs.Trace
	matches := 0
	for i := range recent {
		if recent[i].ID == canon {
			matches++
			found = &recent[i]
		}
	}
	if matches != 1 {
		t.Fatalf("/traces/recent holds %d entries for trace %d, want exactly 1", matches, canon)
	}
	if len(found.Aliases) != 1 {
		t.Fatalf("merged trace aliases: %v", found.Aliases)
	}

	// Both members' lifecycles, keyed by their original minted ids, must
	// appear in the one span tree: submit, at least one grounding round,
	// and the group commit.
	for _, member := range []uint64{mint1, mint2} {
		names := map[string]bool{}
		for _, s := range found.Spans {
			if s.Actor == member {
				names[s.Name] = true
			}
		}
		for _, want := range []string{"submit", "ground", "commit"} {
			if !names[want] {
				t.Errorf("member %d missing %q span (has %v)\nfull trace:\n%s",
					member, want, names, obs.FormatTrace(found))
			}
		}
	}

	// The same tree is reachable over the wire (\trace <id>), through
	// either original id.
	wireTrace, err := minnie.Trace(mint2)
	if err != nil {
		t.Fatal(err)
	}
	if wireTrace.ID != canon || len(wireTrace.Spans) != len(found.Spans) {
		t.Fatalf("wire trace: id=%d spans=%d, debug mux: id=%d spans=%d",
			wireTrace.ID, len(wireTrace.Spans), canon, len(found.Spans))
	}

	// And the metrics op reports the coordination in the same registry the
	// debug mux snapshots.
	snap, err := mickey.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["group_commits"] < 1 || snap.Counters["entangle_ops"] < 1 {
		t.Fatalf("metrics counters: %v", snap.Counters)
	}
	if snap.Histograms["answer_latency"].Count < 2 {
		t.Fatalf("answer_latency count %d, want >= 2", snap.Histograms["answer_latency"].Count)
	}
}
