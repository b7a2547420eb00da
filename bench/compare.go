package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// gate is one end-to-end metric's regression rule, as BENCHMARK.json
// states it.
type gate struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`  // share of the base median it may worsen by
}

// verdict is one row of a comparison.
type verdict struct {
	workload, metric string
	a, b             float64 // medians
	ratio            float64 // b/a
	bound            float64
	spread           float64 // wider of the two sides' quartile distance / median
	status           string  // ok, worse, unresolved
}

// compareSets judges B against A: one row per workload and end-to-end
// metric. B is worse when its median is worse than A's by more than the
// bound; a row whose run-to-run spread is wider than the bound cannot
// show "no change" and reads unresolved.
func compareSets(a, b []*result, gates []gate) []verdict {
	values := func(rs []*result, workload, name string) []float64 {
		var v []float64
		for _, r := range rs {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == 0 {
				v = append(v, m.Value)
			}
		}
		return v
	}
	var rows []verdict
	for _, sp := range specs {
		for _, g := range gates {
			va, vb := values(a, sp.name, g.Name), values(b, sp.name, g.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict{workload: sp.name, metric: g.Name, a: median(va), b: median(vb), bound: g.Bound, status: "ok"}
			v.ratio = ratio(v.b, v.a)
			v.spread = spreadShare(va)
			if s := spreadShare(vb); s > v.spread {
				v.spread = s
			}
			worse := v.ratio - 1
			if g.Better == "higher" {
				worse = 1 - v.ratio
			}
			switch {
			case worse > g.Bound:
				v.status = "worse"
			case v.spread > g.Bound:
				v.status = "unresolved"
			}
			rows = append(rows, v)
		}
	}
	return rows
}

func readSet(path string) ([]*result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setFile
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s.Runs, nil
}

// readGates reads the end-to-end metrics and their bounds from the
// checkout's BENCHMARK.json.
func readGates(path string) ([]gate, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []gate `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.EndToEnd, nil
}

// compareMain is `bench compare A.json B.json`; it exits non-zero on any
// worse row.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	gates, err := readGates("../BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	var sets [2][]*result
	for i, p := range args {
		if sets[i], err = readSet(p); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
	}
	code := 0
	fmt.Printf("%-14s %-12s %12s %12s %18s %7s %8s  %s\n", "workload", "metric", "A median", "B median", "B/A (base A)", "bound", "spread", "verdict")
	for _, v := range compareSets(sets[0], sets[1], gates) {
		fmt.Printf("%-14s %-12s %12.4f %12.4f %8.3fx of %-8.4g %6.0f%% %7.1f%%  %s\n",
			v.workload, v.metric, v.a, v.b, v.ratio, v.a, 100*v.bound, 100*v.spread, v.status)
		if v.status == "worse" {
			code = 1
		}
	}
	return code
}
