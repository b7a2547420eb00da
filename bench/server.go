package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/entangle"
	"repro/entangle/client"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/shard"
)

// nodeSpec is one youtopia-serve instance: everything but the flags below
// stays at the shipped defaults (-f 1, -ground-cache=true, no -sync: one
// buffered write per commit batch, no fsync).
type nodeSpec struct {
	addr  string
	wal   string
	shard int
	peers []string // empty = unsharded
	debug string   // -debug-addr: turns the server's tracer and registry on ("" = off)
}

// node is a running server, either a child process of the real binary or
// (for the quick smoke in the test suite) an in-process server.
type node struct {
	spec nodeSpec
	pid  int // 0 for an in-process node
	stop func() error
}

// launcher starts nodes; bin == "" hosts them in-process.
type launcher struct {
	bin    string // built youtopia-serve binary
	logDir string // child stdout/stderr land here
}

// freeAddr reserves a loopback port by binding and releasing it. Peers
// must know each other's address before either starts, so ":0" on the
// child's command line is not enough for a sharded deployment.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// buildServer compiles cmd/youtopia-serve from the checkout's source into
// outDir and returns the binary's path and the compile time.
func buildServer(root, outDir string) (string, time.Duration, error) {
	bin := filepath.Join(outDir, "youtopia-serve")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/youtopia-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("build youtopia-serve: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// start launches one node and returns once it answers a Ping, so the time
// a caller measures around start is the time to a serving (recovered)
// server.
func (l *launcher) start(spec nodeSpec) (*node, error) {
	n := &node{spec: spec}
	if l.bin == "" {
		stop, err := startInproc(spec)
		if err != nil {
			return nil, err
		}
		n.stop = stop
	} else {
		args := []string{"-addr", spec.addr, "-wal", spec.wal}
		if len(spec.peers) > 0 {
			args = append(args, "-shard", strconv.Itoa(spec.shard), "-peers", strings.Join(spec.peers, ","))
		}
		if spec.debug != "" {
			args = append(args, "-debug-addr", spec.debug)
		}
		logf, err := os.OpenFile(filepath.Join(l.logDir, fmt.Sprintf("serve-%d.log", spec.shard)),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(l.bin, args...)
		cmd.Stdout, cmd.Stderr = logf, logf
		if err := cmd.Start(); err != nil {
			logf.Close()
			return nil, err
		}
		n.pid = cmd.Process.Pid
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait(); logf.Close() }()
		n.stop = func() error {
			_ = cmd.Process.Signal(syscall.SIGTERM) // graceful drain, like an operator's stop
			select {
			case err := <-exited:
				return err
			case <-time.After(15 * time.Second):
				_ = cmd.Process.Kill()
				<-exited
				return fmt.Errorf("node %s did not drain; killed", spec.addr)
			}
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		c, err := client.Dial(spec.addr)
		if err == nil {
			err = c.Ping()
			c.Close()
			if err == nil {
				return n, nil
			}
		}
		if time.Now().After(deadline) {
			_ = n.stop()
			return nil, fmt.Errorf("node %s never answered: %v", spec.addr, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// startInproc hosts the same stack youtopia-serve's main assembles, inside
// this process.
func startInproc(spec nodeSpec) (func() error, error) {
	opts := entangle.Options{Path: spec.wal, RunFrequency: 1, GroundCache: true}
	if spec.debug != "" {
		opts.Metrics = obs.NewRegistry()
		opts.Tracer = obs.NewTracer(obs.TracerOptions{Shard: spec.shard})
	}
	db, err := entangle.Open(opts)
	if err != nil {
		return nil, err
	}
	srv := server.New(db)
	if len(spec.peers) > 0 {
		if err := srv.EnableSharding(shard.New(spec.peers), spec.shard, server.ShardOptions{}); err != nil {
			db.Close()
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", spec.addr)
	if err != nil {
		db.Close()
		return nil, err
	}
	go srv.Serve(ln)
	return func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained := make(chan error, 1)
		go func() { drained <- db.Drain(ctx) }()
		_ = srv.Shutdown(ctx)
		<-drained
		err := db.Close()
		srv.CloseSharding()
		return err
	}, nil
}

// procSample is one reading of a process's CPU time and peak resident set
// from /proc.
type procSample struct {
	cpu   time.Duration
	hwmMB float64
}

// readProc samples pid (0 = this process). A process that is gone reads
// as zero.
func readProc(pid int) procSample {
	dir := "/proc/self"
	if pid != 0 {
		dir = "/proc/" + strconv.Itoa(pid)
	}
	var s procSample
	if raw, err := os.ReadFile(dir + "/stat"); err == nil {
		// Fields after the parenthesised command name; utime and stime are
		// fields 14 and 15 of the whole line, in clock ticks (100/s on Linux).
		if i := strings.LastIndexByte(string(raw), ')'); i >= 0 {
			f := strings.Fields(string(raw[i+1:]))
			if len(f) > 12 {
				ut, _ := strconv.ParseInt(f[11], 10, 64)
				st, _ := strconv.ParseInt(f[12], 10, 64)
				s.cpu = time.Duration(ut+st) * (time.Second / 100)
			}
		}
	}
	if raw, err := os.ReadFile(dir + "/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(line, "VmHWM:") {
				f := strings.Fields(line)
				if len(f) >= 2 {
					kb, _ := strconv.ParseFloat(f[1], 64)
					s.hwmMB = kb / 1024
				}
			}
		}
	}
	return s
}
