package wal

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/storage"
	"repro/internal/types"
)

// Property test: for random transaction histories, in the shapes the
// engine writes them, recovery reproduces exactly the effects of the
// committed transactions — aborted and in-flight transactions vanish, and
// entanglement groups are all-or-nothing. A unit's redo goes out in one
// append with its Commit, its group's GroupCommit or its Prepare; an Abort
// follows a Prepare; an in-flight transaction is prepared and undecided.

// modelTxn is one scripted transaction in the random history.
type modelTxn struct {
	id      TxID
	writes  []modelWrite
	outcome int // 0 = commit, 1 = abort, 2 = in-flight at crash
	group   int // -1 = no group; otherwise entanglement group id
}

type modelWrite struct {
	key   int64 // logical row key
	value int64
}

func genHistory(rng *rand.Rand, nTxns int) []modelTxn {
	txns := make([]modelTxn, nTxns)
	groupID := 0
	for i := range txns {
		txns[i] = modelTxn{id: TxID(i + 1), outcome: rng.Intn(3), group: -1}
		nw := 1 + rng.Intn(3)
		for w := 0; w < nw; w++ {
			txns[i].writes = append(txns[i].writes, modelWrite{
				key:   int64(i*10 + w),
				value: rng.Int63n(1000),
			})
		}
	}
	// Pair some adjacent transactions into entanglement groups.
	for i := 0; i+1 < nTxns; i += 2 {
		if rng.Intn(2) == 0 {
			txns[i].group = groupID
			txns[i+1].group = groupID
			groupID++
		}
	}
	return txns
}

func TestRecoveryPropertyRandomHistories(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	schema := types.NewSchema(
		types.Column{Name: "k", Type: types.KindInt},
		types.Column{Name: "v", Type: types.KindInt},
	)
	for iter := 0; iter < 100; iter++ {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("h%d.wal", iter))
		log, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Append(CreateTable("T", schema)); err != nil {
			t.Fatal(err)
		}
		// Live table mirrors what the engine would do (apply + log).
		cat := storage.NewCatalog()
		tbl, _ := cat.Create("T", schema)

		txns := genHistory(rng, 4+rng.Intn(6))
		groups := make(map[int][]TxID)
		for _, tx := range txns {
			if tx.group >= 0 {
				groups[tx.group] = append(groups[tx.group], tx.id)
			}
		}
		// A group commits atomically only if all its members want to
		// commit; otherwise nobody in the group commits, and each member
		// was prepared, then aborted or left in flight.
		groupCommits := make(map[int]bool)
		for gid := range groups {
			groupCommits[gid] = true
			for _, tx := range txns {
				if tx.group == gid && tx.outcome != 0 {
					groupCommits[gid] = false
				}
			}
		}
		// Units: a committed group is one; any other transaction is one,
		// plus its Abort if it aborts. They reach the log in random order.
		var units [][]*modelTxn
		unitOf := make(map[int]int) // committing group -> its unit
		for i := range txns {
			tx := &txns[i]
			if tx.group >= 0 && groupCommits[tx.group] {
				if u, ok := unitOf[tx.group]; ok {
					units[u] = append(units[u], tx)
					continue
				}
				unitOf[tx.group] = len(units)
			}
			units = append(units, []*modelTxn{tx})
		}
		rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
		var aborts []*Record
		csn := uint64(0)
		for _, u := range units {
			var batch []*Record
			for _, tx := range u {
				for _, w := range tx.writes {
					row := types.Tuple{types.Int(w.key), types.Int(w.value)}
					id, err := load(tbl, row)
					if err != nil {
						t.Fatal(err)
					}
					batch = append(batch, Insert(tx.id, "T", id, row))
				}
			}
			tx := u[0]
			switch {
			case tx.group >= 0 && groupCommits[tx.group]:
				csn++
				batch = append(batch, GroupCommit(groups[tx.group], csn))
			case tx.group < 0 && tx.outcome == 0:
				csn++
				batch = append(batch, Commit(tx.id, csn))
			default:
				batch = append(batch, Prepare(tx.id, uint64(1000+tx.group)))
				if tx.outcome == 1 || tx.group >= 0 && tx.outcome == 0 {
					aborts = append(aborts, Abort(tx.id))
				}
			}
			if err := log.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
			// Some aborts land at once, the rest after later units.
			for len(aborts) > 0 && rng.Intn(2) == 0 {
				if err := log.Append(aborts[0]); err != nil {
					t.Fatal(err)
				}
				aborts = aborts[1:]
			}
		}
		if err := log.AppendBatch(aborts); err != nil {
			t.Fatal(err)
		}
		log.Close()

		// Recover and compare against the model.
		fresh := storage.NewCatalog()
		st, err := RecoverAll(path, fresh)
		if err != nil {
			t.Fatal(err)
		}
		for _, tx := range txns {
			if _, inDoubt := st.InDoubt[tx.id]; inDoubt != (tx.outcome == 2) {
				t.Fatalf("iter %d: tx %d (outcome %d) in doubt: %v", iter, tx.id, tx.outcome, inDoubt)
			}
		}
		got, _ := fresh.Get("T")
		want := make(map[int64]int64) // key -> value for committed writes
		for _, tx := range txns {
			committed := tx.outcome == 0 && tx.group < 0 || (tx.group >= 0 && groupCommits[tx.group])
			if !committed {
				continue
			}
			for _, w := range tx.writes {
				want[w.key] = w.value
			}
		}
		if got.Len() != len(want) {
			t.Fatalf("iter %d: recovered %d rows, want %d", iter, got.Len(), len(want))
		}
		got.ScanTx(0, func(_ storage.RowID, row types.Tuple) bool {
			k, v := row[0].Int64(), row[1].Int64()
			if want[k] != v {
				t.Fatalf("iter %d: key %d recovered %d, want %d", iter, k, v, want[k])
			}
			return true
		})
	}
}
