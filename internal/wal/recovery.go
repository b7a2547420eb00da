package wal

import (
	"errors"
	"fmt"
	"io/fs"
	"os"

	"repro/internal/storage"
)

// RecoveryStats is what recovery hands the process that reopens the log.
type RecoveryStats struct {
	MaxCSN      uint64 // highest CSN seen (snapshot header or log); seeds the clock
	SnapshotCSN uint64 // commit clock recorded in the checkpoint snapshot (0 if none)
	MaxTx       TxID   // highest transaction id seen; seeds the tx-id counter

	// Two-phase commit residue. A transaction with a prepare record but no
	// local commit/abort is in-doubt: its effects are NOT redone, its
	// records are retained so a later coordinator decision can be applied
	// (txn.Manager.CommitRecovered / AbortRecovered), and the row ids of
	// its inserts are reserved. Decisions carries the distributed-group
	// verdicts this log itself recorded — on a coordinator node that is the
	// authoritative answer for in-doubt participants asking.
	InDoubt        map[TxID]uint64    // in-doubt participant tx -> distributed group id
	InDoubtRecords map[TxID][]*Record // their data records, in log order
	Decisions      map[uint64]bool    // group id -> committed (coordinator log)
}

// RecoverAll restores the snapshot (if any), then replays the log segments
// from the one it names to the live one, each in one pass. The returned
// MaxCSN — where the commit clock restarts — is the larger of the
// snapshot's CSN and the highest CSN replayed, so a checkpoint just before
// a crash never rewinds the clock. A torn tail is cut off the live
// segment, so the next append does not bury it mid-log. Replay leaves
// every committed version it applied; recovery ends by pruning to the
// newest at MaxCSN, which is all a snapshot taken after it can see.
func RecoverAll(logPath string, cat *storage.Catalog) (*RecoveryStats, error) {
	// A crash between Switch's two renames left the live segment at .next.
	if _, err := os.Stat(logPath); errors.Is(err, fs.ErrNotExist) {
		if _, err := os.Stat(nextPath(logPath)); err == nil {
			if err := os.Rename(nextPath(logPath), logPath); err != nil {
				return nil, fmt.Errorf("wal: recover: %w", err)
			}
		}
	}
	snapCSN, from, _, err := loadSnapshot(logPath, cat)
	if err != nil {
		return nil, err
	}
	retired, err := retiredSegments(logPath)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, id := range retired {
		if id >= from {
			files = append(files, segmentPath(logPath, id))
		}
	}
	p := &replay{cat: cat, open: make(map[TxID][]Record), st: &RecoveryStats{
		SnapshotCSN:    snapCSN,
		InDoubt:        make(map[TxID]uint64),
		InDoubtRecords: make(map[TxID][]*Record),
		Decisions:      make(map[uint64]bool),
	}}
	var end int64
	for i, name := range append(files, logPath) {
		if end, err = p.segment(name, from+uint64(i), i > 0); err != nil {
			return nil, err
		}
	}
	if fi, err := os.Stat(logPath); err == nil && fi.Size() > end {
		if err := os.Truncate(logPath, end); err != nil {
			return nil, fmt.Errorf("wal: recover: cut torn tail: %w", err)
		}
	}
	st := p.st
	st.MaxCSN = max(st.MaxCSN, snapCSN)
	for tx := range st.InDoubt {
		b := p.open[tx]
		for i := range b {
			st.InDoubtRecords[tx] = append(st.InDoubtRecords[tx], &b[i])
		}
	}
	for _, name := range cat.Names() {
		tbl, _ := cat.Get(name)
		tbl.GC(st.MaxCSN)
	}
	return st, nil
}

// replay applies a log's records in order. A transaction's redo records
// wait in its open batch until its Commit, or its group's GroupCommit,
// applies them at that record's CSN; an Abort drops them. A Prepare marks
// the transaction in doubt, which a later Commit or Abort still settles.
// Writers hold X locks to commit under every isolation level, so
// conflicting writes commit, and replay, in CSN order: each row's version
// chain comes back as the live system ordered it. A batch still open at
// the end of the log is in doubt, or belongs to a transaction that never
// committed.
type replay struct {
	cat   *storage.Catalog
	st    *RecoveryStats
	open  map[TxID][]Record
	spare []Record // a settled batch, whose rows' storage push reuses
}

// segment replays the log segment in the file name, which must be segment
// id, and returns the offset where its intact records end. A segment whose
// predecessor was replayed skips the copies after its header, which repeat
// that predecessor's records.
func (p *replay) segment(name string, id uint64, skipCopies bool) (int64, error) {
	var got, skip, seen uint64
	end, err := Scan(name, func(r *Record) error {
		if seen++; seen == 1 && r.Type == RecSegment {
			got = uint64(r.RowID)
			if skipCopies {
				skip = r.CSN
			}
			return nil
		}
		if skip > 0 {
			skip--
			return nil
		}
		return p.apply(r)
	})
	if err == nil && got != id {
		err = fmt.Errorf("wal: %s is segment %d, want %d", name, got, id)
	}
	return end, err
}

func (p *replay) apply(r *Record) error {
	p.st.MaxTx = max(p.st.MaxTx, r.Tx)
	switch r.Type {
	case RecInsert, RecDelete, RecUpdate:
		b, ok := p.open[r.Tx]
		if !ok {
			b, p.spare = p.spare, nil
		}
		p.open[r.Tx] = push(b, r)
	case RecCommit:
		p.st.MaxCSN = max(p.st.MaxCSN, r.CSN)
		return p.settle(r.Tx, r.CSN, true)
	case RecGroupCommit:
		p.st.MaxCSN = max(p.st.MaxCSN, r.CSN)
		for _, tx := range r.Group {
			p.st.MaxTx = max(p.st.MaxTx, tx)
			if err := p.settle(tx, r.CSN, true); err != nil {
				return err
			}
		}
	case RecAbort:
		return p.settle(r.Tx, 0, false)
	case RecPrepare, RecDecideCommit, RecDecideAbort:
		if len(r.Group) != 1 {
			return fmt.Errorf("wal: %v record names %d groups", r.Type, len(r.Group))
		}
		if r.Type == RecPrepare {
			p.st.InDoubt[r.Tx] = uint64(r.Group[0])
			return p.reserve(p.open[r.Tx])
		}
		p.st.Decisions[uint64(r.Group[0])] = r.Type == RecDecideCommit
	case RecCreateTable:
		if p.cat.Has(r.Table) {
			return nil
		}
		schema, err := tupleToSchema(r.Row)
		if err == nil {
			_, err = p.cat.Create(r.Table, schema)
		}
		return err
	case RecCreateIndex:
		tbl, err := p.cat.Get(r.Table)
		if err != nil {
			return fmt.Errorf("wal: recover index: %w", err)
		}
		if len(r.Row) < 2 {
			return fmt.Errorf("wal: malformed index record for %s", r.Table)
		}
		cols := make([]string, 0, len(r.Row)-1)
		for _, v := range r.Row[1:] {
			cols = append(cols, v.Str64())
		}
		// Idempotent: a snapshot taken after the switch that logged this
		// DDL already carries the index.
		if err := tbl.CreateIndex(r.Row[0].Str64(), cols...); err != nil && !tbl.HasIndexOn(cols...) {
			return fmt.Errorf("wal: recover index: %w", err)
		}
	case RecSegment:
		return fmt.Errorf("wal: SEGMENT record past the start of a segment")
	}
	return nil
}

// push appends a copy of r to b, reusing the row storage of a record b
// held before it was settled.
func push(b []Record, r *Record) []Record {
	c := *r
	c.Group = nil
	if len(b) < cap(b) {
		c.Row = append(b[:cap(b)][len(b)].Row[:0], r.Row...)
	} else {
		c.Row = r.Row.Clone()
	}
	return append(b, c)
}

// settle ends tx: a commit redoes its batch at csn, an abort drops it.
func (p *replay) settle(tx TxID, csn uint64, commit bool) error {
	delete(p.st.InDoubt, tx)
	b, ok := p.open[tx]
	if !ok {
		return nil
	}
	delete(p.open, tx)
	p.spare = b[:0]
	for i := 0; commit && i < len(b); i++ {
		if err := Redo(p.cat, &b[i], csn); err != nil {
			return fmt.Errorf("wal: recover: %w", err)
		}
	}
	return nil
}

// reserve reserves the row ids of an in-doubt batch's inserts, so that no
// insert after the restart takes one; every table the batch writes must
// exist.
func (p *replay) reserve(b []Record) error {
	for _, r := range b {
		tbl, err := p.cat.Get(r.Table)
		if err == nil && r.Type == RecInsert {
			err = tbl.Reserve(storage.RowID(r.RowID))
		}
		if err != nil {
			return fmt.Errorf("wal: recover: in-doubt %v: %w", r.Type, err)
		}
	}
	return nil
}

// Redo applies one Insert, Delete or Update record to cat as a version
// committed at csn: recovery's replay, and the commit of an in-doubt
// transaction after restart.
func Redo(cat *storage.Catalog, r *Record, csn uint64) error {
	tbl, err := cat.Get(r.Table)
	if err == nil {
		switch id := storage.RowID(r.RowID); r.Type {
		case RecInsert:
			err = tbl.InsertAtCSN(id, r.Row, csn)
		case RecDelete:
			_, err = tbl.DeleteCSN(id, csn)
		case RecUpdate:
			_, err = tbl.UpdateCSN(id, r.Row, csn)
		}
	}
	if err != nil {
		return fmt.Errorf("%v: %w", r.Type, err)
	}
	return nil
}
