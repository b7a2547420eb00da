// Command youtopia-serve exposes the entangled-transaction engine over
// TCP: the first deployment shape where two OS processes — two users —
// coordinate through an entangled query, as in the paper's Figure 1.
//
//	youtopia-serve -addr 127.0.0.1:7171 -wal /var/lib/youtopia/wal
//
// Clients connect with entangle/client (or youtopia-shell -connect, or
// anything speaking the internal/wire frame protocol). SIGINT/SIGTERM
// triggers a graceful drain: listeners close, in-flight requests finish,
// pooled transactions get their final scheduling runs, then the WAL
// closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/entangle"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/shard"
)

// armFault parses one -fault spec, "name:kind:prob[:delay]", and arms the
// failpoint: e.g. "server.conn.write:reset:0.01" resets 1% of connection
// writes, "server.dispatch:delay:0.05:2ms" stalls 5% of dispatches 2ms.
// Kinds: error, reset, drop, delay.
func armFault(reg *fault.Registry, spec string) error {
	parts := strings.Split(spec, ":")
	if len(parts) < 3 {
		return fmt.Errorf("fault spec %q: want name:kind:prob[:delay]", spec)
	}
	prob, err := strconv.ParseFloat(parts[2], 64)
	if err != nil || prob <= 0 || prob > 1 {
		return fmt.Errorf("fault spec %q: probability must be in (0,1]", spec)
	}
	act := fault.Action{}
	switch parts[1] {
	case "error":
		act.Kind = fault.KindError
	case "reset":
		act.Kind = fault.KindReset
	case "drop":
		act.Kind = fault.KindDrop
	case "delay":
		act.Kind = fault.KindDelay
		act.Delay = time.Millisecond
		if len(parts) > 3 {
			if act.Delay, err = time.ParseDuration(parts[3]); err != nil {
				return fmt.Errorf("fault spec %q: %v", spec, err)
			}
		}
	default:
		return fmt.Errorf("fault spec %q: unknown kind %q (error|reset|drop|delay)", spec, parts[1])
	}
	reg.Enable(parts[0], fault.Trigger{Prob: prob}, act)
	return nil
}

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7171", "listen address")
		walPath     = flag.String("wal", "", "write-ahead log path (empty = in-memory)")
		syncWAL     = flag.Bool("sync", false, "fsync commit records")
		freq        = flag.Int("f", 1, "run frequency (arrivals per run)")
		conns       = flag.Int("connections", 0, "engine connection limit (0 = default 100)")
		drainWait   = flag.Duration("drain", 10*time.Second, "graceful shutdown budget")
		maxInFlight = flag.Int("max-in-flight", 0, "admission control: max requests executing across all connections; excess is shed with a retryable error (0 = default 1024, negative = unbounded)")
		perConnPend = flag.Int("per-conn-pending", 0, "max parked Wait/session requests per connection before shedding (0 = default 64)")
		faultSeed   = flag.Int64("fault-seed", 1, "failpoint RNG seed (with -fault; fixed seed = reproducible chaos)")
		debugAddr   = flag.String("debug-addr", "", "observability HTTP address (/metrics, /traces/recent, /debug/pprof, /debug/vars); empty = off")
		slowQuery   = flag.Duration("slow-query", 0, "log the full span tree of any traced query slower than this (0 = off)")
		slowSpan    = flag.Duration("slow-span", 0, "log any single lifecycle span (e.g. one grounding round) slower than this (0 = off)")
		traceRing   = flag.Int("trace-ring", 0, "recent-trace ring size (0 = default 256)")
		shardID     = flag.Int("shard", 0, "this process's shard id (with -peers)")
		peerList    = flag.String("peers", "", "sharded deployment: comma-separated addresses of every shard in order (Nodes[i] serves shard i; entry -shard must be this process's address). Shard 0 hosts the group coordinator. Empty = unsharded")
	)
	var faultSpecs []string
	flag.Func("fault", "arm a failpoint, name:kind:prob[:delay] (repeatable); e.g. server.conn.write:reset:0.01, wal.sync.error:error:0.001, server.dispatch:delay:0.05:2ms", func(s string) error {
		faultSpecs = append(faultSpecs, s)
		return nil
	})
	flag.Parse()

	// A fault registry exists only when chaos is requested; otherwise every
	// failpoint stays a nil no-op.
	var reg *fault.Registry
	if len(faultSpecs) > 0 {
		reg = fault.NewRegistry(*faultSeed)
		for _, spec := range faultSpecs {
			if err := armFault(reg, spec); err != nil {
				fmt.Fprintln(os.Stderr, "youtopia-serve:", err)
				os.Exit(2)
			}
		}
		fmt.Printf("youtopia-serve: chaos armed (%d failpoints, seed %d)\n", len(faultSpecs), *faultSeed)
	}

	// Observability: the registry always exists when a debug address is
	// requested; the tracer also turns on when slow-query/slow-span
	// logging is wanted without the HTTP surface.
	var metrics *obs.Registry
	var tracer *obs.Tracer
	if *debugAddr != "" || *slowQuery > 0 || *slowSpan > 0 {
		metrics = obs.NewRegistry()
		tracer = obs.NewTracer(obs.TracerOptions{
			RingSize:  *traceRing,
			SlowQuery: *slowQuery,
			SlowSpan:  *slowSpan,
			Shard:     *shardID,
			Log:       os.Stderr,
		})
	}

	db, err := entangle.Open(entangle.Options{
		Path:         *walPath,
		SyncWAL:      *syncWAL,
		RunFrequency: *freq,
		Connections:  *conns,
		Faults:       reg,
		Metrics:      metrics,
		Tracer:       tracer,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "youtopia-serve:", err)
		os.Exit(1)
	}

	srv := server.NewWithOptions(db, server.Options{
		MaxInFlight:    *maxInFlight,
		PerConnPending: *perConnPend,
		Faults:         reg,
	})

	// Sharded deployment: join the placement map, host the coordinator on
	// shard 0, and resolve any in-doubt groups recovery surfaced against
	// the coordinator's logged decisions (in the background — the
	// coordinator may still be starting; in-doubt effects stay withheld
	// until their verdict arrives).
	if *peerList != "" {
		nodes := strings.Split(*peerList, ",")
		for i := range nodes {
			nodes[i] = strings.TrimSpace(nodes[i])
		}
		if err := srv.EnableSharding(shard.New(nodes), *shardID, server.ShardOptions{}); err != nil {
			fmt.Fprintln(os.Stderr, "youtopia-serve:", err)
			os.Exit(2)
		}
		fmt.Printf("youtopia-serve: shard %d of %d (coordinator %s)\n", *shardID, len(nodes), nodes[0])
		if len(db.InDoubt()) > 0 {
			go func() {
				if err := srv.ResolveInDoubtGroups(time.Minute); err != nil {
					fmt.Fprintln(os.Stderr, "youtopia-serve:", err)
				} else {
					fmt.Println("youtopia-serve: in-doubt groups resolved")
				}
			}()
		}
	}

	if *debugAddr != "" {
		// The debug /metrics document joins three layers under one fetch:
		// the obs registry (counters + percentiles), the legacy stats
		// snapshot with service counters folded in (same shape as the
		// wire's stats frame), and the fault firing ring — firings carry
		// trace ids, so a chaos artifact correlates against /traces/recent.
		statsFn := func() any {
			snap := db.StatsSnapshot()
			svc := srv.ServiceStats()
			snap.Sheds = svc.Sheds
			snap.Retries = svc.Retries
			snap.Reconnects = svc.Reconnects
			snap.FaultsInjected = svc.FaultsInjected
			return struct {
				Engine  entangle.StatsSnapshot `json:"engine"`
				Firings []fault.Firing         `json:"fault_firings,omitempty"`
			}{Engine: snap, Firings: reg.Firings()}
		}
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "youtopia-serve: debug listen:", err)
			os.Exit(1)
		}
		go func() {
			if err := http.Serve(dln, obs.DebugMux(metrics, tracer, statsFn)); err != nil {
				fmt.Fprintln(os.Stderr, "youtopia-serve: debug server:", err)
			}
		}()
		fmt.Printf("youtopia-serve: debug listening on %s\n", dln.Addr())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe(*addr) }()

	// Report the bound address once a listener is up (":0" resolves to a
	// real port), so scripts and the smoke test can parse it.
	var bound string
	for i := 0; i < 100; i++ {
		if addrs := srv.Addrs(); len(addrs) > 0 {
			bound = addrs[0].String()
			break
		}
		select {
		case err := <-serveErr:
			fmt.Fprintln(os.Stderr, "youtopia-serve:", err)
			os.Exit(1)
		case <-time.After(10 * time.Millisecond):
		}
	}
	fmt.Printf("youtopia-serve: listening on %s\n", bound)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Println("youtopia-serve: signal received, draining")
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "youtopia-serve:", err)
		db.Close()
		os.Exit(1)
	}

	// Graceful drain. Network and engine drain run concurrently on one
	// budget: a client parked in Wait on a transaction whose partner never
	// arrives is settled only by the engine drain (deterministic
	// StatusTimedOut/ErrDraining), which in turn lets the network side
	// finish that in-flight request — sequencing them would deadlock until
	// the budget expired. New submissions fail once the engine starts
	// draining; that is the point of SIGTERM.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	engineDrained := make(chan error, 1)
	go func() { engineDrained <- db.Drain(drainCtx) }()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "youtopia-serve: network drain:", err)
	}
	if err := <-engineDrained; err != nil {
		fmt.Fprintln(os.Stderr, "youtopia-serve: engine drain:", err)
	}
	if err := db.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "youtopia-serve: close:", err)
		os.Exit(1)
	}
	srv.CloseSharding()
	fmt.Println("youtopia-serve: bye")
}
