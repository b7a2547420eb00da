// Command bench is the repository's benchmark: it builds the real
// youtopia-serve binary, starts it as child process(es) with the shipped
// defaults, drives it over loopback TCP through entangle/client with the
// binary codec, checks the outputs, and prints every metric by name with
// its unit. README.md in this directory defines the workloads and metrics.
//
//	go run -C bench . --workload pair_steady --seed 1 --seconds 10 --trace 0
//	go run -C bench . -runs 5 -traced -out out/a.json     # the full set
//	go run -C bench . compare out/a.json out/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	warmup = 4 * time.Second
	// setups is how many times a run sets the system up; setup_s is their
	// median, so one slow process start does not decide it.
	setups = 5
	// maxDrivers is the most driver goroutines any workload uses; the
	// program refuses to run on fewer cores.
	maxDrivers = 2
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "drives every generated name, destination and operation order")
		seconds  = flag.Int("seconds", 10, "length of the timed window")
		trace    = flag.Int("trace", 0, "1 = traced run: servers with tracer on, per-layer metrics reported")
		runs     = flag.Int("runs", 1, "with -workload all: runs per workload, on seeds seed, seed+1, ...")
		traced   = flag.Bool("traced", false, "with -workload all: follow the untraced set with a traced set")
		out      = flag.String("out", "", "with -workload all: write every run's result to this file")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *runs, *traced, *out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// setFile is what -out writes and compare reads.
type setFile struct {
	Commit string    `json:"commit"`
	Go     string    `json:"go"`
	NProc  int       `json:"nproc"`
	Claim  *string   `json:"claim"` // this benchmark claims no gain: always null
	BuildS float64   `json:"build_s"`
	Runs   []*result `json:"runs"`
}

func run(workload string, seed int64, seconds, trace, runs int, traced bool, out string) error {
	if runtime.NumCPU() < maxDrivers {
		return fmt.Errorf("%d drivers need %d cores, this machine has %d", maxDrivers, maxDrivers, runtime.NumCPU())
	}
	// go run -C bench puts the working directory in bench/; the checkout
	// root is its parent.
	root, err := filepath.Abs("..")
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "youtopia-serve", "main.go")); err != nil {
		return fmt.Errorf("no youtopia-serve source beside the benchmark: %w", err)
	}
	outDir, err := filepath.Abs("out")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	set := setFile{Commit: commit(root), Go: runtime.Version(), NProc: runtime.NumCPU()}
	fmt.Printf("nproc=%d GOMAXPROCS=%d go=%s commit=%s drivers<=%d connections=%d (closed loop)\n",
		set.NProc, runtime.GOMAXPROCS(0), set.Go, set.Commit, maxDrivers, conns)
	fmt.Println("flush policy: -wal set, no -sync: one buffered write per commit batch, no fsync")

	bin, took, err := buildServer(root, filepath.Join(outDir, "bin"))
	if err != nil {
		return err
	}
	l := &launcher{bin: bin, logDir: scratch}
	set.BuildS = took.Seconds()
	fmt.Printf("build_s=%.3f (not part of setup_s)\n", set.BuildS)

	cfg := func(sp spec, seed int64, traced bool) runConfig {
		return runConfig{sp: sp, seed: seed, window: time.Duration(seconds) * time.Second, warmup: warmup,
			setups: setups, traced: traced, l: l, dir: scratch, out: outDir}
	}

	if workload != "all" {
		sp, ok := specByName(workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", workload)
		}
		res, err := runWorkload(cfg(sp, seed, trace == 1))
		if err != nil {
			return err
		}
		printResult(res)
		// The contract's result line: last on standard output.
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !res.Correct {
			return fmt.Errorf("%s: output check failed: %s", sp.name, strings.Join(res.Errors, "; "))
		}
		return nil
	}

	failed := false
	modes := []bool{false}
	if traced {
		modes = append(modes, true)
	}
	for _, mode := range modes {
		for _, sp := range specs {
			for r := 0; r < runs; r++ {
				res, err := runWorkload(cfg(sp, seed+int64(r), mode))
				if err != nil {
					return err
				}
				printResult(res)
				set.Runs = append(set.Runs, res)
				failed = failed || !res.Correct
			}
		}
	}
	if traced {
		printBudget(set.Runs)
	}
	if out != "" {
		raw, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("an output check failed")
	}
	return nil
}

// commit names the checkout's commit when it is a git repository.
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	raw, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(raw))
}

func printResult(r *result) {
	fmt.Printf("\n%s seed=%d trace=%d correct=%v attempted=%d failed=%d failed_share=%.6f\n",
		r.Workload, r.Seed, r.Trace, r.Correct, r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)))
	dump := func(m map[string]float64, unit func(string) string) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-28s %14.4f %s\n", n, m[n], unit(n))
		}
	}
	vals := map[string]float64{}
	for n, m := range r.Metrics {
		vals[n] = m.Value
	}
	dump(vals, func(n string) string { return r.Metrics[n].Unit })
	dump(r.Info, func(string) string { return "(info)" })
	for _, e := range r.Errors {
		fmt.Println("  ERROR:", e)
	}
}

// printBudget prints, per workload, the traced set's budget beside the
// untraced median: summed layer medians against p50, the gap, and what
// tracing cost in throughput.
func printBudget(all []*result) {
	med := func(workload string, trace int, name string) float64 {
		var v []float64
		for _, r := range all {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == trace {
				v = append(v, m.Value)
			}
		}
		return median(v)
	}
	fmt.Printf("\n%-14s %10s %14s %14s %12s\n", "workload", "p50_ms", "explained_us", "gap_share", "obs.trace_overhead")
	for _, sp := range specs {
		untraced, traced := med(sp.name, 0, "units_per_s"), med(sp.name, 1, "traced.units_per_s")
		fmt.Printf("%-14s %10.3f %14.1f %14.3f %12.3f\n", sp.name, med(sp.name, 0, "p50_ms"),
			med(sp.name, 1, "budget_explained_us"), med(sp.name, 1, "budget_gap_share"), 1-ratio(traced, untraced))
	}
}
