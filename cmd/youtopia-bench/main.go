// Command youtopia-bench regenerates the paper's evaluation figures
// (Figure 6 a/b/c of "Entangled Transactions", PVLDB 4(7), 2011) against
// the Go engine and prints the series the paper plots.
//
// Usage:
//
//	youtopia-bench -exp all -n 10000            # full-size paper runs
//	youtopia-bench -exp 6a -n 1000              # quick concurrency sweep
//	youtopia-bench -exp 6b -p 10,50,100 -f 1,10,50
//	youtopia-bench -exp 6c -k 2,4,6,8,10 -f 10,50
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/entangle"
	"repro/internal/harness"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: 6a, 6b, 6c, or all")
		n       = flag.Int("n", 1000, "transactions per data point (paper: 10000)")
		users   = flag.Int("users", 1000, "users in the social graph")
		latency = flag.Duration("latency", 200*time.Microsecond, "simulated per-statement round trip")
		seed    = flag.Int64("seed", 1, "workload seed")
		conns   = flag.String("connections", "10,20,30,40,50,60,70,80,90,100", "connection counts for 6a")
		pend    = flag.String("p", "10,25,50,75,100", "pending-transaction counts for 6b")
		freqs6b = flag.String("f6b", "1,10,50", "run frequencies for 6b")
		sizes   = flag.String("k", "2,3,4,5,6,7,8,9,10", "coordinating-set sizes for 6c")
		freqs6c = flag.String("f6c", "10,50", "run frequencies for 6c")
		solveB  = flag.Int("solvebudget", 0, "exact coordinating-set search budget in nodes (0 = default; negative = greedy-closure ablation)")
	)
	flag.Parse()

	cfg := harness.Config{N: *n, Users: *users, Seed: *seed, Engine: entangle.Options{
		StmtLatency: *latency, SolveBudget: *solveB}}
	fmt.Printf("youtopia-bench: N=%d users=%d latency=%v seed=%d solvebudget=%d\n\n", *n, *users, *latency, *seed, *solveB)

	run6a := func() {
		series, err := harness.Figure6a(cfg, ints(*conns))
		fatalIf(err)
		harness.PrintSeries(os.Stdout, "Figure 6(a): Concurrent transactions — total time for "+
			strconv.Itoa(*n)+" transactions", "connections", series)
		printOverheadDecomposition(series)
		fmt.Println()
	}
	run6b := func() {
		series, err := harness.Figure6b(cfg, ints(*pend), ints(*freqs6b))
		fatalIf(err)
		harness.PrintSeries(os.Stdout, "Figure 6(b): Pending transactions — total time vs p", "p", series)
		fmt.Println()
	}
	run6c := func() {
		series, err := harness.Figure6c(cfg, ints(*sizes), ints(*freqs6c))
		fatalIf(err)
		harness.PrintSeries(os.Stdout, "Figure 6(c): Entanglement complexity — total time vs coordinating-set size", "k", series)
		fmt.Println()
	}

	switch *exp {
	case "6a":
		run6a()
	case "6b":
		run6b()
	case "6c":
		run6c()
	case "all":
		run6a()
		run6b()
		run6c()
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// printOverheadDecomposition reproduces the §5.2.2 claim: the Entangled-T
// overhead over NoSocial-T roughly equals the Entangled-Q overhead over
// NoSocial-Q — entangled transactions cost no more than classical
// transactions plus query evaluation.
func printOverheadDecomposition(series []harness.Series) {
	byName := make(map[string]harness.Series)
	for _, s := range series {
		byName[s.Name] = s
	}
	et, nt := byName["Entangled-T"], byName["NoSocial-T"]
	eq, nq := byName["Entangled-Q"], byName["NoSocial-Q"]
	if len(et.Points) == 0 || len(nt.Points) == 0 || len(eq.Points) == 0 || len(nq.Points) == 0 {
		return
	}
	fmt.Println("\nOverhead decomposition (§5.2.2): (Entangled-T − NoSocial-T) vs (Entangled-Q − NoSocial-Q)")
	fmt.Printf("%-12s%16s%16s\n", "connections", "T-overhead", "Q-overhead")
	for i := range et.Points {
		fmt.Printf("%-12.0f%15.3fs%15.3fs\n",
			et.Points[i].X,
			et.Points[i].Seconds-nt.Points[i].Seconds,
			eq.Points[i].Seconds-nq.Points[i].Seconds)
	}
}

func ints(csv string) []int {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		fatalIf(err)
		out = append(out, v)
	}
	return out
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "youtopia-bench:", err)
		os.Exit(1)
	}
}
