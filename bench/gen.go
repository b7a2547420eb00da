package main

import (
	"fmt"
	"math/rand"
)

// spec is one workload's sizes. Every field is an input property the
// system's behaviour depends on; README.md gives the reason for each value.
type spec struct {
	name string
	why  string

	// Pair workloads: Flights holds dests*perDest rows.
	dests     int
	perDest   int
	indexDest bool // CREATE INDEX on Flights(dest); otherwise on fno only
	pending   int  // partner-less members parked for the whole window
	writer    bool // each driver awaits a classical UPDATE of Flights after every group
	shards    int  // youtopia-serve processes
	drivers   int  // closed-loop driver goroutines

	// classical_mix: Notes preload rows and statements in flight per connection.
	notes int
	depth int

	restart bool // restart the server on its WAL afterwards and re-check
}

var specs = []spec{
	{name: "pair_steady", dests: 2500, perDest: 8, indexDest: true, shards: 1, drivers: 2, restart: true,
		why: "baseline life of a coordinated pair: 8 indexed rows to ground, so wire, server, sql, run loop, txn and wal carry the latency"},
	{name: "pair_pending", dests: 2500, perDest: 8, indexDest: true, pending: 32, shards: 1, drivers: 2,
		why: "32 partner-less members stay pooled, so every run re-executes them: core requeue cycle and eq.Solve do the work, ground cache hits"},
	{name: "pair_scan", dests: 250, perDest: 8, pending: 8, writer: true, shards: 1, drivers: 2,
		why: "no index on dest, and a committed write to Flights after every group defeats the ground cache: pending queries re-ground by full scan (eq, storage)"},
	{name: "pair_xshard", dests: 2500, perDest: 8, indexDest: true, shards: 2, drivers: 1,
		why: "partners home on different shards, one driver: matchmaker, two-phase group commit, server-to-server wire ops; today every group waits one 25 ms retry tick"},
	{name: "classical_mix", notes: 100000, depth: 16, shards: 1, drivers: 2, restart: true,
		why: "no entangled queries: 7 point reads, 2 inserts, 1 update per 10 statements, pipelined; coordination-path changes must not move it"},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// quick shrinks a spec for the in-process smoke in the test suite.
func (s spec) quick() spec {
	if s.dests > 0 {
		s.dests = 40
	}
	if s.pending > 0 {
		s.pending = 4
	}
	if s.notes > 0 {
		s.notes = 2000
	}
	return s
}

func (s spec) isPair() bool { return s.notes == 0 }

// tables is the workload's schema, its preload as single-row INSERTs, and
// the index built after the load. The servers and the in-process copy the
// layer probes read are both made from it.
func (s spec) tables() (ddl string, rows []string, index string) {
	if !s.isPair() {
		rows = make([]string, s.notes)
		for k := range rows {
			rows[k] = noteInsert(k, noteValue(k))
		}
		return "CREATE TABLE Notes (id INT, who VARCHAR, n INT);", rows, "CREATE INDEX notes_id ON Notes (id);"
	}
	rows = make([]string, s.flightRows())
	for i := range rows {
		rows[i] = flightInsert(s, i+1)
	}
	index = "CREATE INDEX flights_fno ON Flights (fno);"
	if s.indexDest {
		index = "CREATE INDEX flights_dest ON Flights (dest);"
	}
	return `CREATE TABLE Flights (fno INT, fdate DATE, dest VARCHAR, seats INT);
CREATE TABLE Bookings (name VARCHAR, fno INT, fdate DATE, batch INT);`, rows, index
}

// Flights is generated, not random: flight fno goes to destination
// (fno-1)/perDest on a date fixed by its slot, so a booking can be checked
// against the requested destination without reading the table back.
func (s spec) flightRows() int { return s.dests * s.perDest }

func destName(d int) string { return fmt.Sprintf("D%04d", d) }

func flightDate(s spec, fno int) string { return fmt.Sprintf("2011-05-%02d", (fno-1)%s.perDest+1) }

func flightInsert(s spec, fno int) string {
	return fmt.Sprintf("INSERT INTO Flights VALUES (%d, '%s', '%s', 100);",
		fno, flightDate(s, fno), destName((fno-1)/s.perDest))
}

// pairScript is the paper's Mickey/Minnie flight script (the one
// bench_test.go and examples/ use): ground on the flights to dest, require
// the partner's matching answer tuple, book the chosen flight. batch is a
// constant written with the booking so the output check can read Bookings
// back in bounded slices.
func pairScript(me, them, rel, dest string, timeoutS, batch int) string {
	return fmt.Sprintf(`BEGIN TRANSACTION WITH TIMEOUT %d SECONDS;
SELECT '%s', fno AS @fno, fdate AS @fdate INTO ANSWER %s
WHERE fno, fdate IN (SELECT fno, fdate FROM Flights WHERE dest='%s')
AND ('%s', fno, fdate) IN ANSWER %s
CHOOSE 1;
INSERT INTO Bookings VALUES ('%s', @fno, @fdate, %d);
COMMIT;`, timeoutS, me, rel, dest, them, rel, me, batch)
}

// batchRows bounds how many units share one Bookings batch number, so a
// check reads at most 2*batchRows rows per request however fast the
// server gets.
const batchRows = 2048

// pendingDriver is the generator lane of the partner-less members; driver
// lanes are 0..spec.drivers-1.
const pendingDriver = 15

type member struct{ name, script string }

// pairUnit is one coordinated group of two.
type pairUnit struct {
	a, b   member
	dest   int
	batch  int
	writer string // classical statement to await after this group ("" = none)
}

// pairGen yields the script stream of one driver. Everything it emits is a
// function of (seed, lane, index): the servers see only these scripts.
type pairGen struct {
	sp   spec
	seed int64
	lane int
	rng  *rand.Rand
	home func(string) int // placement map's Home; nil when unsharded
	n    int
}

func newPairGen(sp spec, seed int64, lane int, home func(string) int) *pairGen {
	return &pairGen{sp: sp, seed: seed, lane: lane, home: home,
		rng: rand.New(rand.NewSource(seed*1000003 + int64(lane)))}
}

// name returns a fresh user name; on a sharded deployment it salts the
// name until it homes on the wanted shard.
func (g *pairGen) name(side string, want int) string {
	base := fmt.Sprintf("s%d_%d_%d%s", g.seed, g.lane, g.n, side)
	if g.home == nil {
		return base
	}
	for salt := 0; ; salt++ {
		if n := fmt.Sprintf("%s%d", base, salt); g.home(n) == want {
			return n
		}
	}
}

func (g *pairGen) next() pairUnit {
	u := pairUnit{dest: g.rng.Intn(g.sp.dests), batch: (g.n/batchRows)*16 + g.lane}
	rel, timeout := "FlightRes", 60
	if g.lane == pendingDriver {
		// Private answer relation and a timeout longer than any run: the
		// member can only ever match its own late partner.
		rel, timeout = fmt.Sprintf("Pend%d", g.n), 600
	}
	// Cross-shard: the first member homes on shard 0 (the coordinator's),
	// the last on the other. The opposite order waits for the retry tick
	// in over half the groups instead of a third, which would put the
	// median latency on the edge between the two modes.
	a, b := g.name("a", 0), g.name("b", g.sp.shards-1)
	dest := destName(u.dest)
	u.a = member{a, pairScript(a, b, rel, dest, timeout, u.batch)}
	u.b = member{b, pairScript(b, a, rel, dest, timeout, u.batch)}
	if g.sp.writer && g.lane != pendingDriver {
		u.writer = fmt.Sprintf("UPDATE Flights SET seats=%d WHERE fno=%d",
			g.rng.Intn(300), g.rng.Intn(g.sp.flightRows())+1)
	}
	g.n++
	return u
}

// Statement kinds of classical_mix.
const (
	kindSelect = iota
	kindInsert
	kindUpdate
)

type stmt struct {
	kind int
	sql  string
	want int64 // kindSelect: the value last acknowledged for the key
}

// mixGen yields one driver's classical_mix statements. A driver owns the
// keys congruent to its lane, collects results in issue order, and never
// touches a key that one of its last depth statements wrote — so when a
// statement is issued every earlier write of its key has been
// acknowledged, and a SELECT has exactly one correct answer.
type mixGen struct {
	sp      spec
	lane    int
	rng     *rand.Rand
	block   []int // kinds left in the current block of 10
	recent  []int // keys written by the last depth statements (-1 = none)
	n       int
	written map[int]int64 // key -> value of its last acknowledged write
	inserts int
}

func newMixGen(sp spec, seed int64, lane int) *mixGen {
	g := &mixGen{sp: sp, lane: lane, written: map[int]int64{},
		rng: rand.New(rand.NewSource(seed*1000003 + int64(lane))), recent: make([]int, sp.depth)}
	for i := range g.recent {
		g.recent[i] = -1
	}
	return g
}

func noteValue(key int) int64 { return int64(key*7+3) % 1000 }

func noteInsert(key int, n int64) string {
	return fmt.Sprintf("INSERT INTO Notes VALUES (%d, 'w%d', %d);", key, key%97, n)
}

// key draws one of the driver's preloaded keys, uniformly, skipping keys
// with a write possibly still in flight.
func (g *mixGen) key() int {
	for {
		k := g.rng.Intn(g.sp.notes/g.sp.drivers)*g.sp.drivers + g.lane
		busy := false
		for _, r := range g.recent {
			busy = busy || r == k
		}
		if !busy {
			return k
		}
	}
}

func (g *mixGen) value(key int) int64 {
	if v, ok := g.written[key]; ok {
		return v
	}
	return noteValue(key)
}

func (g *mixGen) next() stmt {
	if len(g.block) == 0 {
		g.block = []int{kindSelect, kindSelect, kindSelect, kindSelect, kindSelect, kindSelect, kindSelect,
			kindInsert, kindInsert, kindUpdate}
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	st := stmt{kind: g.block[0]}
	g.block = g.block[1:]
	wrote := -1
	switch st.kind {
	case kindSelect:
		k := g.key()
		st.sql, st.want = fmt.Sprintf("SELECT n FROM Notes WHERE id=%d", k), g.value(k)
	case kindInsert:
		k := g.sp.notes + g.inserts*g.sp.drivers + g.lane
		g.inserts++
		g.written[k] = g.rng.Int63n(1000)
		st.sql = noteInsert(k, g.written[k])
	case kindUpdate:
		k, v := g.key(), g.rng.Int63n(1000)
		g.written[k], wrote = v, k
		st.sql = fmt.Sprintf("UPDATE Notes SET n=%d WHERE id=%d", v, k)
	}
	g.recent[g.n%len(g.recent)] = wrote
	g.n++
	return st
}
