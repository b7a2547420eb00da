package wal

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/storage"
	"repro/internal/types"
)

// Property test: for random interleaved transaction histories, recovery
// reproduces exactly the effects of the committed transactions — aborted
// and in-flight transactions vanish, and entanglement groups are
// all-or-nothing.

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
		for i := range txns {
			log.Append(Begin(txns[i].id))
		}
		// Entangle records.
		groups := make(map[int][]TxID)
		for _, tx := range txns {
			if tx.group >= 0 {
				groups[tx.group] = append(groups[tx.group], tx.id)
			}
		}
		for gid, members := range groups {
			log.Append(Entangle(TxID(1000+gid), members))
		}
		// Interleave writes randomly.
		type step struct{ tx, w int }
		var steps []step
		for i, tx := range txns {
			for w := range tx.writes {
				steps = append(steps, step{i, w})
			}
		}
		rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
		rowIDs := make(map[[2]int]storage.RowID)
		for _, s := range steps {
			tx := txns[s.tx]
			w := tx.writes[s.w]
			row := types.Tuple{types.Int(w.key), types.Int(w.value)}
			id, err := load(tbl, row)
			if err != nil {
				t.Fatal(err)
			}
			rowIDs[[2]int{s.tx, s.w}] = id
			log.Append(Insert(tx.id, "T", id, row))
		}
		// Outcomes. A group commits atomically only if all its members
		// want to commit; otherwise nobody in the group commits.
		groupCommits := make(map[int]bool)
		for gid, members := range groups {
			ok := true
			for _, tx := range txns {
				if tx.group == gid && tx.outcome != 0 {
					ok = false
				}
			}
			if ok {
				log.Append(GroupCommit(members, 0))
				groupCommits[gid] = true
			}
		}
		for _, tx := range txns {
			if tx.group >= 0 {
				if !groupCommits[tx.group] && tx.outcome == 1 {
					log.Append(Abort(tx.id))
				}
				continue
			}
			switch tx.outcome {
			case 0:
				log.Append(Commit(tx.id, 0))
			case 1:
				log.Append(Abort(tx.id))
			}
		}
		log.Close()

		// Recover and compare against the model.
		fresh := storage.NewCatalog()
		if _, err := RecoverAll(path, fresh); err != nil {
			t.Fatal(err)
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
