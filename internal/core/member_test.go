package core

import (
	"path/filepath"
	"testing"

	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/wal"
)

// TestRunDirectAllocs pins the allocations of one classical statement
// script (insert, lookup, update) through RunDirect, transactional and
// autocommit, with and without a WAL. The ceilings fail the test when a
// closure passed to member.do escapes, or when a single-transaction commit
// through CommitUnits allocates its CSN list or WAL record.
func TestRunDirectAllocs(t *testing.T) {
	for _, tc := range []struct {
		name       string
		wal        bool
		autocommit bool
		max        float64
	}{
		{"memory/transactional", false, false, 37},
		{"memory/autocommit", false, true, 49},
		{"wal/transactional", true, false, 37},
		{"wal/autocommit", true, true, 49},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var log *wal.Log
			if tc.wal {
				var err error
				if log, err = wal.Open(filepath.Join(t.TempDir(), "db.wal"), wal.Options{}); err != nil {
					t.Fatal(err)
				}
				defer log.Close()
			}
			txm := txn.NewManager(storage.NewCatalog(), lock.New(0), log)
			schema := types.NewSchema(
				types.Column{Name: "fno", Type: types.KindInt},
				types.Column{Name: "seats", Type: types.KindInt})
			for _, name := range []string{"Flights", "Bookings"} {
				if _, err := txm.CreateTable(name, schema); err != nil {
					t.Fatal(err)
				}
			}
			e := NewEngine(txm, Options{})
			defer e.Close()
			row := types.Tuple{types.Int(122), types.Int(10)}
			seed := e.RunDirect(Program{Body: func(tx *Tx) error {
				_, err := tx.Insert("Flights", row)
				return err
			}})
			if seed.Status != StatusCommitted {
				t.Fatalf("seed: %v", seed.Err)
			}
			cols, key := []string{"fno"}, types.Tuple{types.Int(122)}
			p := Program{Autocommit: tc.autocommit, Body: func(tx *Tx) error {
				if _, err := tx.Insert("Bookings", row); err != nil {
					return err
				}
				ids, _, err := tx.LookupIDs("Flights", cols, key)
				if err != nil {
					return err
				}
				return tx.Update("Flights", ids[0], row)
			}}
			allocs := testing.AllocsPerRun(100, func() {
				if o := e.RunDirect(p); o.Status != StatusCommitted {
					t.Fatalf("run: %v", o.Err)
				}
			})
			t.Logf("%.0f allocs per RunDirect", allocs)
			if allocs > tc.max {
				t.Errorf("RunDirect allocates %.0f, want at most %.0f", allocs, tc.max)
			}
		})
	}
}
