// Command youtopia-shell is a small interactive shell over the entangled
// transaction engine: classical SQL executes immediately; scripts between
// BEGIN TRANSACTION and COMMIT/ROLLBACK are submitted to the run scheduler,
// so two shells (or one shell with \async) can coordinate through
// entangled queries.
//
// By default the engine runs embedded in the shell process. With
// -connect host:port the shell becomes a remote client of a
// youtopia-serve process instead — same SQL, same meta commands — and two
// shells connected to one server coordinate across OS processes.
//
// Meta commands:
//
//	\tables          list tables
//	\stats           engine counters (JSON snapshot)
//	\metrics         observability registry (counters + latency percentiles)
//	\trace <id>      one traced query's span tree (ids print on submit)
//	\checkpoint      snapshot + retire the WAL (embedded -wal mode only)
//	\async           submit the next BEGIN...COMMIT block without waiting
//	\wait            wait for all outstanding async transactions
//	\quit            exit
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/entangle"
	"repro/entangle/client"
	"repro/internal/obs"
	"repro/internal/types"
	"repro/internal/wire"
)

// result is the column/row shape both backends produce.
type result struct {
	Columns      []string
	Rows         []types.Tuple
	RowsAffected int
}

// waiter abstracts entangle.Handle and client.Handle.
type waiter interface{ Wait() entangle.Outcome }

// traceOf reports a handle's trace id; both handle types carry one when
// tracing is enabled (0 otherwise).
func traceOf(h waiter) uint64 {
	if t, ok := h.(interface{ TraceID() uint64 }); ok {
		return t.TraceID()
	}
	return 0
}

// backend is the shell's engine surface, satisfied embedded and remote.
type backend interface {
	// Exec runs classical statements through an interactive session (host
	// variables persist; BEGIN/COMMIT blocks without entangled queries are
	// legal too, but the shell routes whole blocks through Submit).
	Exec(src string) (*result, error)
	// Submit routes a whole script through the run scheduler.
	Submit(script string) (waiter, error)
	Tables() ([]wire.TableInfo, error)
	Stats() (entangle.StatsSnapshot, error)
	// Metrics is the observability registry snapshot (\metrics).
	Metrics() (obs.Snapshot, error)
	// Trace fetches one traced query's span tree by id (\trace <id>).
	Trace(id uint64) (obs.Trace, error)
	// Checkpoint snapshots the database and retires the WAL (embedded
	// mode only; requires -wal).
	Checkpoint() error
	Close() error
}

// localBackend embeds the engine in the shell process.
type localBackend struct {
	db *entangle.DB
	is *entangle.InteractiveSession
}

func (l *localBackend) Exec(src string) (*result, error) {
	res, err := l.is.Exec(src)
	if err != nil || res == nil {
		return nil, err
	}
	return &result{Columns: res.Columns, Rows: res.Rows, RowsAffected: res.RowsAffected}, nil
}

func (l *localBackend) Submit(script string) (waiter, error) { return l.db.SubmitScript(script) }

func (l *localBackend) Tables() ([]wire.TableInfo, error) {
	return wire.TableInfos(l.db.Catalog()), nil
}

func (l *localBackend) Stats() (entangle.StatsSnapshot, error) { return l.db.StatsSnapshot(), nil }

func (l *localBackend) Metrics() (obs.Snapshot, error) { return l.db.Metrics().Snapshot(), nil }

func (l *localBackend) Trace(id uint64) (obs.Trace, error) {
	tr, ok := l.db.Tracer().Get(id)
	if !ok {
		return tr, fmt.Errorf("unknown trace %d", id)
	}
	return tr, nil
}

func (l *localBackend) Checkpoint() error { return l.db.Checkpoint() }

func (l *localBackend) Close() error {
	l.is.Close()
	return l.db.Close()
}

// remoteBackend speaks to a youtopia-serve process.
type remoteBackend struct {
	c  *client.Client
	is *client.InteractiveSession
}

func (r *remoteBackend) Exec(src string) (*result, error) {
	res, err := r.is.Exec(src)
	if err != nil && r.sessionLost(err) {
		// The connection died underneath the session (and the client may
		// have self-healed since). Sessions are connection-scoped and
		// deliberately never retried, so the old one is gone for good:
		// open a fresh session and rerun the statement. Host variables and
		// any open transaction were rolled back with the old session —
		// tell the user rather than silently losing them.
		r.is = r.c.Interactive()
		fmt.Println("  (connection was reset: opened a new session; host variables cleared)")
		res, err = r.is.Exec(src)
	}
	if err != nil || res == nil {
		return nil, err
	}
	return &result{Columns: res.Columns, Rows: res.Rows, RowsAffected: res.RowsAffected}, nil
}

// sessionLost reports whether err means the interactive session's backing
// connection died: either the server forgot the id after a reconnect
// (typed unknown_session) or the call itself rode the dying connection.
// Recovery is a single attempt — if the whole client was Close()d, the
// fresh session fails with the same error and that is what the user sees.
func (r *remoteBackend) sessionLost(err error) bool {
	return errors.Is(err, wire.ErrUnknownSession) || errors.Is(err, client.ErrClosed)
}

func (r *remoteBackend) Submit(script string) (waiter, error) { return r.c.SubmitScript(script) }

func (r *remoteBackend) Tables() ([]wire.TableInfo, error) { return r.c.Tables() }

func (r *remoteBackend) Stats() (entangle.StatsSnapshot, error) { return r.c.Stats() }

func (r *remoteBackend) Metrics() (obs.Snapshot, error) { return r.c.Metrics() }

func (r *remoteBackend) Trace(id uint64) (obs.Trace, error) { return r.c.Trace(id) }

func (r *remoteBackend) Checkpoint() error {
	return fmt.Errorf("\\checkpoint is embedded-mode only (the server owns its WAL)")
}

func (r *remoteBackend) Close() error {
	r.is.Close()
	return r.c.Close()
}

func main() {
	var (
		walPath = flag.String("wal", "", "write-ahead log path (empty = in-memory; embedded mode only)")
		freq    = flag.Int("f", 1, "run frequency (arrivals per run; embedded mode only)")
		connect = flag.String("connect", "", "connect to a youtopia-serve address instead of running embedded")
	)
	flag.Parse()

	var (
		be  backend
		err error
	)
	if *connect != "" {
		var c *client.Client
		// Tracing is on: the shell is the debugging surface, and a traced
		// request against a server without a tracer costs nothing (the
		// server drops the id).
		c, err = client.DialOptions(*connect, client.Options{Trace: true})
		if err == nil {
			be = &remoteBackend{c: c, is: c.Interactive()}
			fmt.Printf("connected to %s\n", *connect)
		}
	} else {
		var db *entangle.DB
		// The embedded shell always traces: the ring is bounded and an
		// interactive session never notices the per-query span cost.
		db, err = entangle.Open(entangle.Options{Path: *walPath, RunFrequency: *freq,
			Tracer: obs.NewTracer(obs.TracerOptions{})})
		if err == nil {
			be = &localBackend{db: db, is: db.Interactive()}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "youtopia-shell:", err)
		os.Exit(1)
	}
	defer be.Close()

	fmt.Println("Youtopia entangled-transaction shell. \\quit to exit.")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)

	var (
		buf      strings.Builder
		inTxn    bool
		async    bool
		pending  []waiter
		pendName []string
	)
	prompt := func() {
		if inTxn {
			fmt.Print("   ...> ")
		} else {
			fmt.Print("youtopia> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "":
			prompt()
			continue
		case strings.HasPrefix(line, "\\"):
			switch strings.Fields(line)[0] {
			case "\\quit", "\\q":
				return
			case "\\tables":
				tables, err := be.Tables()
				if err != nil {
					fmt.Println("  error:", err)
					break
				}
				for _, tbl := range tables {
					fmt.Printf("  %s %s (%d rows)\n", tbl.Name, tbl.Schema, tbl.Rows)
				}
			case "\\stats":
				snap, err := be.Stats()
				if err != nil {
					fmt.Println("  error:", err)
					break
				}
				data, _ := json.MarshalIndent(snap, "  ", "  ")
				fmt.Println("  " + string(data))
			case "\\metrics":
				snap, err := be.Metrics()
				if err != nil {
					fmt.Println("  error:", err)
					break
				}
				data, _ := json.MarshalIndent(snap, "  ", "  ")
				fmt.Println("  " + string(data))
			case "\\trace":
				fields := strings.Fields(line)
				if len(fields) != 2 {
					fmt.Println("  usage: \\trace <id>")
					break
				}
				id, perr := strconv.ParseUint(fields[1], 10, 64)
				if perr != nil {
					fmt.Println("  error:", perr)
					break
				}
				tr, err := be.Trace(id)
				if err != nil {
					fmt.Println("  error:", err)
					break
				}
				for _, l := range strings.Split(strings.TrimRight(obs.FormatTrace(&tr), "\n"), "\n") {
					fmt.Println("  " + l)
				}
			case "\\checkpoint":
				if err := be.Checkpoint(); err != nil {
					fmt.Println("  error:", err)
					break
				}
				fmt.Println("  checkpoint complete (snapshot written, old log retired)")
			case "\\async":
				async = true
				fmt.Println("  next transaction will be submitted asynchronously")
			case "\\wait":
				for i, h := range pending {
					o := h.Wait()
					fmt.Printf("  [%s] %v (attempts=%d, err=%v)\n", pendName[i], o.Status, o.Attempts, o.Err)
				}
				pending, pendName = nil, nil
			default:
				fmt.Println("  unknown meta command", line)
			}
			prompt()
			continue
		}

		buf.WriteString(line)
		buf.WriteByte('\n')
		upper := strings.ToUpper(line)
		if strings.HasPrefix(upper, "BEGIN") {
			inTxn = true
		}
		terminated := strings.HasSuffix(strings.TrimSuffix(strings.TrimSpace(line), ";"), "COMMIT") ||
			strings.HasSuffix(strings.TrimSuffix(strings.TrimSpace(line), ";"), "ROLLBACK")
		if inTxn && !terminated {
			prompt()
			continue
		}
		if !inTxn && !strings.HasSuffix(line, ";") {
			prompt()
			continue
		}
		script := buf.String()
		buf.Reset()
		wasTxn := inTxn
		inTxn = false

		if wasTxn {
			h, err := be.Submit(script)
			if err != nil {
				fmt.Println("  error:", err)
			} else if async {
				pending = append(pending, h)
				pendName = append(pendName, fmt.Sprintf("txn-%d", len(pending)))
				if id := traceOf(h); id != 0 {
					fmt.Printf("  submitted asynchronously (trace %d); \\wait to collect\n", id)
				} else {
					fmt.Println("  submitted asynchronously; \\wait to collect")
				}
			} else {
				o := h.Wait()
				if id := traceOf(h); id != 0 {
					fmt.Printf("  %v (attempts=%d, trace=%d)\n", o.Status, o.Attempts, id)
				} else {
					fmt.Printf("  %v (attempts=%d)\n", o.Status, o.Attempts)
				}
				if o.Err != nil {
					fmt.Println("  error:", o.Err)
				}
			}
			async = false
		} else {
			res, err := be.Exec(script)
			switch {
			case err != nil:
				fmt.Println("  error:", err)
			case res != nil && len(res.Columns) > 0:
				fmt.Println("  " + strings.Join(res.Columns, " | "))
				for _, row := range res.Rows {
					cells := make([]string, len(row))
					for i, v := range row {
						cells[i] = v.String()
					}
					fmt.Println("  " + strings.Join(cells, " | "))
				}
				fmt.Printf("  (%d rows)\n", len(res.Rows))
			case res != nil:
				fmt.Printf("  ok (%d rows affected)\n", res.RowsAffected)
			default:
				fmt.Println("  ok")
			}
		}
		prompt()
	}
}
