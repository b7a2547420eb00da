package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/shard"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{100000, 99}, {1000, 99}, {999, 100 * 989.0 / 999}, {500, 98}, {100, 90}, {21, 100 * 11.0 / 21}, {20, 50}, {3, 50}} {
		if got := tailPercentile(c.n); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// The rule itself: at least ten samples lie beyond the reported one.
	for n := 21; n < 1200; n += 7 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i)
		}
		if beyond := n - 1 - int(percentile(s, tailPercentile(n))); beyond < 10 {
			t.Fatalf("n=%d: only %d samples beyond the tail percentile", n, beyond)
		}
	}
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if percentile(s, 50) != 5 || percentile(s, 99) != 10 || percentile(s, 0) != 1 || percentile(nil, 50) != 0 {
		t.Errorf("nearest-rank percentile is off: %v %v", percentile(s, 50), percentile(s, 99))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of 3 = %v, %v", q1, q3)
	}
	if got := spreadShare([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Errorf("spreadShare = %v, want (8.25-2.75)/5.5", got)
	}
}

// streams renders the first n units of every generator a workload uses.
func streams(sp spec, seed int64, n int) []string {
	var out []string
	home := (func(string) int)(nil)
	if sp.shards > 1 {
		home = shard.New([]string{"a:1", "b:2"}).Home
	}
	for lane := 0; lane < sp.drivers; lane++ {
		if sp.isPair() {
			g := newPairGen(sp, seed, lane, home)
			for i := 0; i < n; i++ {
				u := g.next()
				out = append(out, u.a.script, u.b.script, u.writer)
			}
		} else {
			g := newMixGen(sp, seed, lane)
			for i := 0; i < n; i++ {
				out = append(out, g.next().sql)
			}
		}
	}
	return out
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, sp := range specs {
		a, b, c := streams(sp, 7, 300), streams(sp, 7, 300), streams(sp, 8, 300)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different script streams", sp.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same script stream", sp.name)
		}
	}
}

func TestCrossShardPairsHomeApart(t *testing.T) {
	sp, _ := specByName("pair_xshard")
	m := shard.New([]string{"a:1", "b:2"})
	g := newPairGen(sp, 3, 1, m.Home)
	for i := 0; i < 200; i++ {
		u := g.next()
		if m.Home(u.a.name) != 0 || m.Home(u.b.name) != 1 {
			t.Fatalf("pair %d: %s homes on %d, %s on %d", i, u.a.name, m.Home(u.a.name), u.b.name, m.Home(u.b.name))
		}
		if shard.RouteKey(u.a.script) != u.a.name {
			t.Fatalf("routing key of %s's script is %q", u.a.name, shard.RouteKey(u.a.script))
		}
	}
}

func TestMixGenNeverTouchesAKeyInFlight(t *testing.T) {
	sp, _ := specByName("classical_mix")
	sp.notes = 64 // few keys, so collisions would be common
	g := newMixGen(sp, 1, 0)
	model := map[int]int64{}
	var inFlight []int // keys updated by the depth-1 statements before this one
	kinds := map[int]int{}
	for i := 0; i < 5000; i++ {
		st := g.next()
		kinds[st.kind]++
		key, wrote := -1, -1
		var v int64
		switch st.kind {
		case kindSelect:
			fmt.Sscanf(st.sql, "SELECT n FROM Notes WHERE id=%d", &key)
			want, ok := model[key]
			if !ok {
				want = noteValue(key)
			}
			if st.want != want {
				t.Fatalf("statement %d: %s expects %d, last acknowledged value is %d", i, st.sql, st.want, want)
			}
		case kindUpdate:
			fmt.Sscanf(st.sql, "UPDATE Notes SET n=%d WHERE id=%d", &v, &key)
			model[key], wrote = v, key
		}
		for _, k := range inFlight {
			if k == key && key >= 0 {
				t.Fatalf("statement %d touches key %d while an update of it may be in flight", i, key)
			}
		}
		if inFlight = append(inFlight, wrote); len(inFlight) > sp.depth-1 {
			inFlight = inFlight[1:]
		}
	}
	if kinds[kindSelect] != 3500 || kinds[kindInsert] != 1000 || kinds[kindUpdate] != 500 {
		t.Errorf("mix is %v, want 7:2:1", kinds)
	}
}

func loadRuns(t *testing.T, path string) []*result {
	t.Helper()
	rs, err := readSet(path)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestCompareOnFixtures(t *testing.T) {
	gates, err := readGates("testdata/gates.json")
	if err != nil {
		t.Fatal(err)
	}
	status := func(b string) map[string]string {
		got := map[string]string{}
		for _, v := range compareSets(loadRuns(t, "testdata/a.json"), loadRuns(t, b), gates) {
			got[v.workload+"/"+v.metric] = v.status
		}
		return got
	}
	// b_ok: every median within its bound, spreads narrow.
	for k, s := range status("testdata/b_ok.json") {
		if s != "ok" {
			t.Errorf("b_ok %s: %s", k, s)
		}
	}
	// b_worse: pair_steady throughput falls 20% (bound 10%), p50 rises 5%
	// (inside its bound), and classical_mix p99 runs scatter wider than the
	// bound without the median moving.
	got := status("testdata/b_worse.json")
	want := map[string]string{
		"pair_steady/units_per_s":   "worse",
		"pair_steady/p50_ms":        "ok",
		"pair_steady/p99_ms":        "ok",
		"classical_mix/units_per_s": "ok",
		"classical_mix/p99_ms":      "unresolved",
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("b_worse %s: got %q, want %q", k, got[k], w)
		}
	}
}

// TestBrokenOutputFailsTheCheck documents what the output check catches:
// each fixture is a Bookings read-back that violates the pair contract in
// one way, and each must be counted as a failed unit — which makes the
// run incorrect and the command exit non-zero.
func TestBrokenOutputFailsTheCheck(t *testing.T) {
	sp, _ := specByName("pair_steady")
	g := newPairGen(sp, 1, 0, nil)
	var groups []pairOutcome
	good := map[string]booking{}
	for i := 0; i < 4; i++ {
		u := g.next()
		groups = append(groups, pairOutcome{u, true})
		fno := int64(u.dest*sp.perDest + 3)
		good[u.a.name] = booking{fno, flightDate(sp, int(fno)), 1}
		good[u.b.name] = good[u.a.name]
	}
	if bad, first := checkGroups(sp, groups, good); bad != 0 {
		t.Fatalf("a correct read-back fails the check: %s", first)
	}
	a, b := groups[1].u.a.name, groups[1].u.b.name
	for name, breakIt := range map[string]func(rows map[string]booking){
		"widow":           func(r map[string]booking) { delete(r, b) },
		"partners differ": func(r map[string]booking) { r[b] = booking{r[b].fno + 1, r[b].fdate, 1} },
		"wrong dest": func(r map[string]booking) {
			x := booking{1 + int64((groups[1].u.dest+1)%sp.dests*sp.perDest), "2011-05-01", 1}
			r[a], r[b] = x, x
		},
		"booked twice":     func(r map[string]booking) { r[a] = booking{r[a].fno, r[a].fdate, 2} },
		"row of no group":  func(r map[string]booking) { r["stranger"] = r[a] },
		"aborted has rows": func(r map[string]booking) { groups[1].committed = false },
	} {
		rows := map[string]booking{}
		for k, v := range good {
			rows[k] = v
		}
		breakIt(rows)
		bad, first := checkGroups(sp, groups, rows)
		groups[1].committed = true
		if bad == 0 {
			t.Errorf("%s: the check passed a broken output", name)
		} else {
			t.Logf("%s: %s", name, first)
		}
	}
}

// benchmarkDoc is BENCHMARK.json as the driver reads it.
type benchmarkDoc struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []gate                       `json:"end_to_end"`
	PerLayer  []gate                       `json:"per_layer"`
}

// TestQuickSmoke runs every workload once, untraced and traced, against
// in-process servers on small tables: set-up, warm-up, a short window, the
// output check, the restart check, the layer probes. It also holds
// BENCHMARK.json to what the program prints.
func TestQuickSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	names := func(gs []gate) []string {
		var out []string
		for _, g := range gs {
			out = append(out, g.Name)
		}
		sort.Strings(out)
		return out
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why || len(w.Why) > 200 {
			t.Errorf("BENCHMARK.json workload %d is %q / %q", i, w.Name, w.Why)
		}
	}
	dir := t.TempDir()
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			sp, traced := sp, traced
			name := sp.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				res, err := runWorkload(runConfig{sp: sp.quick(), seed: 1, window: 400 * time.Millisecond,
					warmup: 100 * time.Millisecond, setups: 1, traced: traced, l: &launcher{}, dir: dir})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d errors=%v", res.Correct, res.Attempted, res.Failed, res.Errors)
				}
				var got []string
				for n := range res.Metrics {
					got = append(got, n)
				}
				sort.Strings(got)
				want := names(doc.EndToEnd)
				if traced {
					want = names(doc.PerLayer)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("metrics printed and BENCHMARK.json disagree:\n printed %v\n    json %v", got, want)
				}
			})
		}
	}
}
