package txn

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/wal"
)

// The crash sweep drives a Manager over a real log through a seeded
// history — commits, multi-unit CommitUnits batches, unprepared aborts,
// prepares that end committed, aborted or in doubt — while a model keeps
// the committed state after every write-bearing unit. The log is then cut
// at every byte: recovery of each prefix must equal the model after the
// units whose commit record the prefix holds whole, and the prepares the
// prefix leaves undecided must be exactly InDoubt, with their records.

// sweepOp is one write as the model sees it; row is nil for a delete.
type sweepOp struct {
	kind wal.RecordType
	id   storage.RowID
	row  types.Tuple
}

type sweepModel struct {
	t     *testing.T
	m     *Manager
	rng   *rand.Rand
	state map[storage.RowID]types.Tuple // committed
	busy  map[storage.RowID]bool        // written by an open transaction
	ops   map[*Txn][]sweepOp
	// units are the write-bearing commit units in commit order; states[k]
	// is the committed state after the first k of them.
	units  [][]*Txn
	states []map[storage.RowID]types.Tuple
	// open holds prepared groups awaiting their decision.
	open      [][]*Txn
	prepared  map[wal.TxID]uint64
	nextGroup uint64
	seq       int64
}

func (s *sweepModel) must(err error) {
	s.t.Helper()
	if err != nil {
		s.t.Fatal(err)
	}
}

func (s *sweepModel) begin() *Txn {
	tx, err := s.m.Begin(Serializable)
	s.must(err)
	return tx
}

func (s *sweepModel) image() types.Tuple {
	s.seq++
	return types.Tuple{types.Int(s.seq), types.Str(fmt.Sprint("v", s.seq))}
}

// record notes op for tx, then changes the caller's tuple: the log must
// carry the row as written, not the caller's later edit.
func (s *sweepModel) record(tx *Txn, kind wal.RecordType, id storage.RowID, row types.Tuple) {
	op := sweepOp{kind: kind, id: id}
	if row != nil {
		op.row = row.Clone()
		row[1] = types.Str("edited after the write")
	}
	s.ops[tx] = append(s.ops[tx], op)
	s.busy[id] = true
}

func (s *sweepModel) insert(tx *Txn) storage.RowID {
	row := s.image()
	id, err := tx.Insert("T", row)
	s.must(err)
	s.record(tx, wal.RecInsert, id, row)
	return id
}

func (s *sweepModel) update(tx *Txn, id storage.RowID) {
	row := s.image()
	s.must(tx.Update("T", id, row))
	s.record(tx, wal.RecUpdate, id, row)
}

func (s *sweepModel) delete(tx *Txn, id storage.RowID) {
	s.must(tx.Delete("T", id))
	s.record(tx, wal.RecDelete, id, nil)
}

// free picks a committed row no open transaction has written.
func (s *sweepModel) free() (storage.RowID, bool) {
	var ids []storage.RowID
	for id := range s.state {
		if !s.busy[id] {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return 0, false
	}
	slices.Sort(ids)
	return ids[s.rng.Intn(len(ids))], true
}

// writes gives tx one to three writes on distinct rows.
func (s *sweepModel) writes(tx *Txn) {
	for n := 1 + s.rng.Intn(3); n > 0; n-- {
		id, ok := s.free()
		switch k := s.rng.Intn(3); {
		case !ok || k == 0:
			s.insert(tx)
		case k == 1:
			s.update(tx, id)
		default:
			s.delete(tx, id)
		}
	}
}

func (s *sweepModel) release(tx *Txn) {
	for _, op := range s.ops[tx] {
		delete(s.busy, op.id)
	}
}

// commit retires units through one CommitUnits call and advances the model.
func (s *sweepModel) commit(units ...[]*Txn) {
	s.must(s.m.CommitUnits(units))
	for _, u := range units {
		wrote := false
		for _, tx := range u {
			wrote = wrote || len(s.ops[tx]) > 0
		}
		if !wrote {
			continue
		}
		next := maps(s.state)
		for _, tx := range u {
			for _, op := range s.ops[tx] {
				if op.row == nil {
					delete(next, op.id)
				} else {
					next[op.id] = op.row
				}
			}
			s.release(tx)
		}
		s.state = next
		s.units = append(s.units, u)
		s.states = append(s.states, next)
	}
}

func (s *sweepModel) abort(tx *Txn) {
	s.must(tx.Abort())
	s.release(tx)
}

func (s *sweepModel) prepare(n int) {
	s.nextGroup++
	g := make([]*Txn, n)
	for i := range g {
		g[i] = s.begin()
		s.writes(g[i])
		s.must(s.m.Prepare(g[i], s.nextGroup))
		s.prepared[wal.TxID(g[i].ID())] = s.nextGroup
	}
	s.open = append(s.open, g)
}

func (s *sweepModel) decide(commit bool) {
	g := s.open[0]
	s.open = s.open[1:]
	if commit {
		s.commit(g)
		return
	}
	for _, tx := range g {
		s.abort(tx)
	}
}

func maps(m map[storage.RowID]types.Tuple) map[storage.RowID]types.Tuple {
	out := make(map[storage.RowID]types.Tuple, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func (s *sweepModel) step(kind int) {
	switch kind {
	case 0: // one transaction commits
		tx := s.begin()
		s.writes(tx)
		s.commit([]*Txn{tx})
	case 1: // several units, some groups, some read-only, one batch
		var units [][]*Txn
		for n := 2 + s.rng.Intn(2); n > 0; n-- {
			u := make([]*Txn, 1+s.rng.Intn(2))
			for i := range u {
				u[i] = s.begin()
				if s.rng.Intn(4) > 0 {
					s.writes(u[i])
				}
			}
			units = append(units, u)
		}
		s.commit(units...)
	case 2: // an unprepared abort
		tx := s.begin()
		s.writes(tx)
		s.abort(tx)
	case 3: // a prepared group of one or two
		s.prepare(1 + s.rng.Intn(2))
	case 4: // the oldest prepared group is decided
		if len(s.open) > 0 {
			s.decide(s.rng.Intn(2) == 0)
		}
	case 5: // one transaction inserts, updates and deletes one row
		tx := s.begin()
		id := s.insert(tx)
		s.update(tx, id)
		s.delete(tx, id)
		kept := s.insert(tx)
		s.update(tx, kept)
		s.commit([]*Txn{tx})
	case 6: // inserts reach the log out of RowID order
		a, b := s.begin(), s.begin()
		s.insert(a)
		s.insert(b)
		s.commit([]*Txn{b})
		s.commit([]*Txn{a})
	}
}

// redoOf is the model's expectation of a transaction's redo records: per
// row in first-write order, its writes in order.
func redoOf(ops []sweepOp) []sweepOp {
	var rows []storage.RowID
	for _, op := range ops {
		if !slices.Contains(rows, op.id) {
			rows = append(rows, op.id)
		}
	}
	var out []sweepOp
	for _, id := range rows {
		for _, op := range ops {
			if op.id == id {
				out = append(out, op)
			}
		}
	}
	return out
}

// frameEnds returns the byte offset after each record frame in data.
func frameEnds(data []byte) []int {
	var ends []int
	for off := 0; off+8 <= len(data); {
		off += 8 + int(binary.LittleEndian.Uint32(data[off:]))
		ends = append(ends, off)
	}
	return ends
}

func TestCrashSweepOfManagerLog(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { crashSweep(t, seed) })
	}
}

func crashSweep(t *testing.T, seed int64) {
	m, path := newTestManager(t, true)
	s := &sweepModel{
		t: t, m: m, rng: rand.New(rand.NewSource(seed)),
		state: map[storage.RowID]types.Tuple{}, busy: map[storage.RowID]bool{},
		ops: map[*Txn][]sweepOp{}, prepared: map[wal.TxID]uint64{},
		states: []map[storage.RowID]types.Tuple{{}},
	}
	if _, err := m.CreateTable("T", types.NewSchema(
		types.Column{Name: "k", Type: types.KindInt},
		types.Column{Name: "v", Type: types.KindString},
	)); err != nil {
		t.Fatal(err)
	}
	// Every kind of step once, a decided prepare of each outcome, then a
	// seeded mix; the last prepared group stays in doubt.
	for _, k := range []int{0, 0, 1, 2, 5, 6} {
		s.step(k)
	}
	s.prepare(2)
	s.prepare(1)
	s.decide(true)
	s.decide(false)
	for i := 0; i < 30; i++ {
		s.step(s.rng.Intn(7))
	}
	s.prepare(2)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full, err := wal.ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(data)
	if len(ends) != len(full) || ends[len(ends)-1] != len(data) {
		t.Fatalf("%d frames ending at %d, %d records in %d bytes", len(ends), ends[len(ends)-1], len(full), len(data))
	}

	// Where each unit's commit record and each prepared transaction's
	// prepare and decision records end.
	var unitEnd []int
	prepEnd := map[wal.TxID]int{}
	decideEnd := map[wal.TxID]int{}
	for i, r := range full {
		switch r.Type {
		case wal.RecCommit, wal.RecGroupCommit:
			u := s.units[len(unitEnd)]
			ids := r.Group
			if r.Type == wal.RecCommit {
				ids = []wal.TxID{r.Tx}
			}
			if len(ids) != len(u) {
				t.Fatalf("commit record %d names %v for unit of %d", len(unitEnd), ids, len(u))
			}
			for j, tx := range u {
				if ids[j] != wal.TxID(tx.ID()) {
					t.Fatalf("commit record %d names %v, unit is tx %d...", len(unitEnd), ids, tx.ID())
				}
				decideEnd[ids[j]] = ends[i]
			}
			unitEnd = append(unitEnd, ends[i])
		case wal.RecPrepare:
			prepEnd[r.Tx] = ends[i]
		case wal.RecAbort:
			decideEnd[r.Tx] = ends[i]
		case wal.RecInsert, wal.RecUpdate, wal.RecDelete:
		default:
			if i > 0 {
				t.Fatalf("record %d is %v: only redo, commit, prepare and abort records follow the DDL", i, r.Type)
			}
		}
	}
	if len(unitEnd) != len(s.units) {
		t.Fatalf("%d commit records for %d write-bearing units", len(unitEnd), len(s.units))
	}
	txByID := map[wal.TxID]*Txn{}
	for tx := range s.ops {
		txByID[wal.TxID(tx.ID())] = tx
	}

	cut := filepath.Join(t.TempDir(), "cut.wal")
	for b := 0; b <= len(data); b++ {
		if err := os.WriteFile(cut, data[:b], 0o644); err != nil {
			t.Fatal(err)
		}
		cat := storage.NewCatalog()
		stats, err := wal.RecoverAll(cut, cat)
		if err != nil {
			t.Fatalf("cut at %d: %v", b, err)
		}
		k := 0
		for k < len(unitEnd) && unitEnd[k] <= b {
			k++
		}
		got := map[storage.RowID]types.Tuple{}
		if tbl, err := cat.Get("T"); err == nil {
			tbl.ScanTx(0, func(id storage.RowID, row types.Tuple) bool {
				got[id] = row.Clone()
				return true
			})
		}
		if want := s.states[k]; !sameRows(got, want) {
			t.Fatalf("cut at %d (after %d units): recovered %v, want %v", b, k, got, want)
		}
		if stats.MaxCSN != uint64(k) {
			t.Fatalf("cut at %d: max CSN %d, want %d", b, stats.MaxCSN, k)
		}
		for tx, g := range s.prepared {
			end, decided := decideEnd[tx]
			want := prepEnd[tx] <= b && !(decided && end <= b)
			gotG, got := stats.InDoubt[tx]
			if got != want || (got && gotG != g) {
				t.Fatalf("cut at %d: tx %d in doubt %v (group %d), want %v (group %d)", b, tx, got, gotG, want, g)
			}
			if got {
				checkRedo(t, b, stats.InDoubtRecords[tx], redoOf(s.ops[txByID[tx]]))
			}
		}
		if len(stats.InDoubt) > len(s.prepared) {
			t.Fatalf("cut at %d: in doubt %v", b, stats.InDoubt)
		}
	}
	t.Logf("%d bytes, %d records, %d units, %d prepared", len(data), len(full), len(s.units), len(s.prepared))
}

func sameRows(a, b map[storage.RowID]types.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for id, row := range a {
		if w, ok := b[id]; !ok || !row.Equal(w) {
			return false
		}
	}
	return true
}

func checkRedo(t *testing.T, b int, got []*wal.Record, want []sweepOp) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("cut at %d: %d in-doubt records, want %d", b, len(got), len(want))
	}
	for i, r := range got {
		w := want[i]
		if r.Type != w.kind || r.Table != "T" || storage.RowID(r.RowID) != w.id || !r.Row.Equal(w.row) {
			t.Fatalf("cut at %d: in-doubt record %d = %v %s %d %v, want %v %d %v", b, i, r.Type, r.Table, r.RowID, r.Row, w.kind, w.id, w.row)
		}
	}
}
