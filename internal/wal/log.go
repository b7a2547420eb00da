package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"sync"

	"repro/internal/fault"
	"repro/internal/storage"
	"repro/internal/types"
)

// Log is an append-only write-ahead log. All appends are serialized; Sync
// durability is optional (the experiments disable fsync, as the paper's
// measurements are not I/O-bound — the entanglement overhead is the object
// of study).
//
// The file at the log's path is its live segment. A checkpoint (see
// snapshot.go) switches appends to a new segment at the same path and
// keeps the old one, renamed, until its snapshot is durable.
type Log struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	seg     uint64 // id of the live segment: 0 until the first checkpoint
	sync    bool
	buf     []byte
	flushes int64 // physical writes (a batch counts once)
	failed  error // first write/sync error; latches the log (fail-stop)

	// What the next segment must repeat, kept as the batches reach the
	// file: the frames of each prepare not yet decided (its redo records
	// and its Prepare record), and every decision logged.
	open      map[TxID]carried
	committed []uint64 // groups decided commit
	aborted   []uint64 // groups decided abort

	// Failpoints (nil without a fault registry; see internal/fault).
	ptAppendErr   *fault.Point // "wal.append.error": write fails, nothing lands
	ptAppendShort *fault.Point // "wal.append.short": torn write of KeepBytes
	ptSyncErr     *fault.Point // "wal.sync.error": fsync fails after the write
	ptCheckpoint  *fault.Point // "wal.checkpoint": a checkpoint's file operation fails undone
}

// carried is one undecided prepare's frames and their record count.
type carried struct {
	frames []byte
	n      int
}

// Options configures a Log.
type Options struct {
	// Sync forces an fsync after every commit-class record.
	Sync bool
	// Faults, when set, arms the log's failpoints ("wal.append.error",
	// "wal.append.short", "wal.sync.error", "wal.checkpoint") from the
	// given registry.
	Faults *fault.Registry
}

// Open opens (creating if needed) the log file at path. A log that
// recovery found undecided prepares or decisions in must be told of them
// (Adopt) before its first checkpoint.
func Open(path string, opts Options) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	seg, err := segmentHeader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	l := &Log{f: f, path: path, seg: seg, sync: opts.Sync}
	if opts.Faults != nil {
		l.ptAppendErr = opts.Faults.Point("wal.append.error")
		l.ptAppendShort = opts.Faults.Point("wal.append.short")
		l.ptSyncErr = opts.Faults.Point("wal.sync.error")
		l.ptCheckpoint = opts.Faults.Point("wal.checkpoint")
	}
	return l, nil
}

// Adopt tells a reopened log what recovery left undecided in it: the
// in-doubt transactions, whose records the next segment must repeat until
// their decision is logged, and the decisions themselves.
func (l *Log) Adopt(st *RecoveryStats) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for tx, group := range st.InDoubt {
		l.note(append(slices.Clip(st.InDoubtRecords[tx]), Prepare(tx, group)))
	}
	for g, commit := range st.Decisions {
		if commit {
			l.committed = append(l.committed, g)
		} else {
			l.aborted = append(l.aborted, g)
		}
	}
}

// frameInto appends r's length-prefixed, CRC-framed encoding to buf. The
// payload is encoded in place after a reserved 8-byte frame header, then
// the header is patched with the payload's length and CRC — no per-record
// scratch allocation, so a batch append reuses the Log's single buffer for
// every frame.
func frameInto(buf []byte, r *Record) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = r.encode(buf)
	payload := buf[start+8:]
	binary.LittleEndian.PutUint32(buf[start:start+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:start+8], crc32.ChecksumIEEE(payload))
	return buf
}

// flushClass reports whether a record type demands a durability flush.
// Prepare and decision records are flush class too: a participant must not
// vote yes on a prepare that could vanish in a crash, and a coordinator
// must not fan out a decision its log has not made durable.
func flushClass(t RecordType) bool {
	switch t {
	case RecCommit, RecGroupCommit, RecAbort, RecPrepare, RecDecideCommit, RecDecideAbort:
		return true
	}
	return false
}

// Append writes one record to the log. Commit, GroupCommit, and Abort
// records are flushed (and fsynced when Options.Sync is set) before
// returning, which is the WAL durability rule.
func (l *Log) Append(r *Record) error {
	return l.AppendBatch([]*Record{r})
}

// AppendBatch writes a batch of records with a single buffered write and at
// most one fsync — the group-commit flush the run scheduler uses to retire
// every commit unit of a run at once instead of paying one serialized flush
// per entanglement group. Each record keeps its own frame and CRC, so a
// crash mid-batch tears the batch only at a record boundary (plus at most
// one torn record at the tail, which recovery discards): individual commit
// units remain atomic, they are just made durable together.
//
// A write or sync error latches the log failed (fail-stop, as a DBMS
// panics on a WAL write failure): a short write can leave a torn frame
// mid-file, and appending valid records after it would make every later
// record unrecoverable (ReadAll tolerates a torn tail, not a torn middle)
// while their commits were acknowledged. Latched, every later append fails
// loudly instead, and the on-disk log stays a recoverable prefix.
func (l *Log) AppendBatch(rs []*Record) error {
	if len(rs) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("wal: log closed")
	}
	if l.failed != nil {
		return fmt.Errorf("wal: log failed: %w", l.failed)
	}
	l.buf = l.buf[:0]
	needSync := false
	for _, r := range rs {
		l.buf = frameInto(l.buf, r)
		needSync = needSync || flushClass(r.Type)
	}
	if err := l.ptAppendErr.Fire(); err != nil {
		l.failed = err
		return fmt.Errorf("wal: append: %w", err)
	}
	if act, hit := l.ptAppendShort.Eval(); hit {
		// Torn write: only a prefix of the batch reaches the file, exactly
		// as a crash mid-write would leave it. The log latches failed so
		// no later append can bury the torn tail mid-file.
		keep := act.KeepBytes
		if keep > len(l.buf) {
			keep = len(l.buf)
		}
		if _, err := l.f.Write(l.buf[:keep]); err != nil {
			l.failed = err
			return fmt.Errorf("wal: append: %w", err)
		}
		err := l.ptAppendShort.ErrFor(act)
		l.failed = err
		return fmt.Errorf("wal: append: %w", err)
	}
	if _, err := l.f.Write(l.buf); err != nil {
		l.failed = err
		return fmt.Errorf("wal: append: %w", err)
	}
	l.flushes++
	l.note(rs)
	if l.sync && needSync {
		if err := l.ptSyncErr.Fire(); err != nil {
			l.failed = err
			return fmt.Errorf("wal: sync: %w", err)
		}
		if err := l.f.Sync(); err != nil {
			l.failed = err
			return fmt.Errorf("wal: sync: %w", err)
		}
	}
	return nil
}

// note keeps what the next segment must repeat from a batch that reached
// the file: a prepare's frames until its transaction's commit or abort is
// logged, and every decision.
func (l *Log) note(rs []*Record) {
	for _, r := range rs {
		switch r.Type {
		case RecPrepare:
			var c carried
			for _, d := range rs {
				if d.Tx == r.Tx && (d == r || d.Type == RecInsert || d.Type == RecUpdate || d.Type == RecDelete) {
					c.frames, c.n = frameInto(c.frames, d), c.n+1
				}
			}
			if l.open == nil {
				l.open = make(map[TxID]carried)
			}
			l.open[r.Tx] = c
		case RecCommit, RecAbort:
			delete(l.open, r.Tx)
		case RecGroupCommit:
			for _, tx := range r.Group {
				delete(l.open, tx)
			}
		case RecDecideCommit:
			l.committed = append(l.committed, uint64(r.Group[0]))
		case RecDecideAbort:
			l.aborted = append(l.aborted, uint64(r.Group[0]))
		}
	}
}

// Flushes returns the number of physical write calls issued — with batched
// group commit this is what a run pays, not the record count.
func (l *Log) Flushes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushes
}

// Close closes the underlying file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// ReadAll parses every intact record in the file at path. A torn tail
// (truncated or CRC-corrupt final record) terminates the scan without
// error, as in standard recovery; corruption mid-log is reported.
func ReadAll(path string) ([]*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: read: %w", err)
	}
	var out []*Record
	pos := 0
	for pos < len(data) {
		if len(data)-pos < 8 {
			break // torn frame header at tail
		}
		n := int(binary.LittleEndian.Uint32(data[pos : pos+4]))
		want := binary.LittleEndian.Uint32(data[pos+4 : pos+8])
		if len(data)-pos-8 < n {
			break // torn payload at tail
		}
		payload := data[pos+8 : pos+8+n]
		if crc32.ChecksumIEEE(payload) != want {
			if pos+8+n == len(data) {
				break // corrupt final record: treat as torn
			}
			return nil, fmt.Errorf("wal: CRC mismatch at offset %d", pos)
		}
		r, err := decodeRecord(payload)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		pos += 8 + n
	}
	return out, nil
}

// Convenience constructors for the record kinds.

// Insert returns an INSERT record with the new row image.
func Insert(tx TxID, table string, rowID storage.RowID, row types.Tuple) *Record {
	return &Record{Type: RecInsert, Tx: tx, Table: table, RowID: int64(rowID), Row: row}
}

// Commit returns a COMMIT record for a single (non-entangled) transaction,
// carrying the commit sequence number its versions were stamped with (0 for
// a read-only commit).
func Commit(tx TxID, csn uint64) *Record { return &Record{Type: RecCommit, Tx: tx, CSN: csn} }

// Abort returns an ABORT record.
func Abort(tx TxID) *Record { return &Record{Type: RecAbort, Tx: tx} }

// GroupCommit returns a record committing an entire entanglement group
// atomically at one commit sequence number.
func GroupCommit(group []TxID, csn uint64) *Record {
	return &Record{Type: RecGroupCommit, Group: group, CSN: csn}
}

// Prepare returns a two-phase-commit participant prepare record: tx is
// parked in-doubt as a member of the given distributed group.
func Prepare(tx TxID, group uint64) *Record {
	return &Record{Type: RecPrepare, Tx: tx, Group: []TxID{TxID(group)}}
}

// DecideCommit returns the coordinator's commit decision for a
// distributed group — logged before any commit fan-out.
func DecideCommit(group uint64) *Record {
	return &Record{Type: RecDecideCommit, Group: []TxID{TxID(group)}}
}

// DecideAbort returns the coordinator's abort decision for a distributed
// group.
func DecideAbort(group uint64) *Record {
	return &Record{Type: RecDecideAbort, Group: []TxID{TxID(group)}}
}

// CreateTable returns a DDL record for catalog replay.
func CreateTable(name string, schema *types.Schema) *Record {
	return &Record{Type: RecCreateTable, Table: name, Row: schemaToTuple(schema)}
}

// CreateIndex returns a DDL record replaying an index build: the index
// name followed by its column names, flattened into the row image.
func CreateIndex(table, index string, columns []string) *Record {
	row := types.Tuple{types.Str(index)}
	for _, c := range columns {
		row = append(row, types.Str(c))
	}
	return &Record{Type: RecCreateIndex, Table: table, Row: row}
}
