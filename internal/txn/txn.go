// Package txn implements classical ACID transactions over the storage,
// lock, and wal substrates. Writes always serialize through row-level
// exclusive locks and install uncommitted versions in the MVCC store;
// what varies per isolation level is the read path:
//
//   - Serializable: Strict 2PL — table-level shared locks (the regime
//     §3.3.3 of the paper assumes: "Minnie's transaction would have held a
//     read lock on the Airlines table until commit") plus row S locks for
//     index reads, all held to commit. Reads observe the newest committed
//     version plus the transaction's own writes.
//   - ReadCommitted: shared locks released at statement end; write locks
//     still held to commit. This is the §4 relaxation of "altering the
//     length of time locks are held".
//   - SnapshotIsolation: reads take NO locks at all — the transaction pins
//     a commit-sequence-number (CSN) snapshot at begin and every read
//     resolves version chains against it. Write conflicts are detected
//     first-committer-wins: updating or deleting a row whose newest
//     committed version postdates the snapshot fails with
//     ErrWriteConflict (retryable). This takes the read path off the lock
//     manager entirely, which is what lets read-heavy workloads scale past
//     the 2PL contention wall.
//
// Commit allocates a CSN under the commit mutex, logs the redo and commit
// records in one append, stamps the versions, and only then publishes the
// clock — so snapshots observe whole commits or nothing. Group commit
// stamps every unit of a batch before one publication, preserving the §4
// entangled group-commit atomicity.
package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/wal"
)

// IsolationLevel selects the concurrency-control discipline of a
// transaction.
type IsolationLevel int

// Supported isolation levels.
const (
	Serializable IsolationLevel = iota
	ReadCommitted
	SnapshotIsolation
)

func (l IsolationLevel) String() string {
	switch l {
	case Serializable:
		return "SERIALIZABLE"
	case ReadCommitted:
		return "READ COMMITTED"
	case SnapshotIsolation:
		return "SNAPSHOT"
	default:
		return fmt.Sprintf("IsolationLevel(%d)", int(l))
	}
}

// State is the lifecycle state of a transaction.
type State int

// Transaction states.
const (
	Active State = iota
	Committed
	Aborted
)

// Errors returned by transaction operations.
var (
	ErrNotActive = errors.New("txn: transaction is not active")
	// ErrWriteConflict is the first-committer-wins outcome under snapshot
	// isolation: another transaction committed a newer version of the row
	// after this transaction's snapshot. The loser aborts and retries.
	ErrWriteConflict = errors.New("txn: snapshot write conflict (first committer wins)")
)

// Observer receives operation notifications; the entangled-transaction
// layer uses it to record execution schedules for the isolation checker.
// Row is storage.RowID or -1 for a whole-table read. Implementations must
// be safe for concurrent use.
type Observer interface {
	OnRead(tx uint64, table string, row int64)
	OnWrite(tx uint64, table string, row int64)
	OnCommit(tx uint64)
	OnAbort(tx uint64)
}

// Manager creates and finalizes transactions.
type Manager struct {
	cat    *storage.Catalog
	locks  *lock.Manager
	log    *wal.Log // nil disables durability
	nextTx atomic.Uint64

	clock    atomic.Uint64 // newest published commit sequence number
	commitMu sync.Mutex    // serializes CSN allocation + stamping + publication
	snaps    *snapshotTable
	// CommitUnits' scratch, reused under commitMu so a commit allocates
	// neither its CSN list nor its WAL records.
	unitCSN []uint64
	redo    redoBatch

	ckptMu sync.Mutex // one checkpoint at a time

	obsMu    sync.RWMutex
	observer Observer
}

// NewManager wires a transaction manager over a catalog, lock manager, and
// optional write-ahead log.
func NewManager(cat *storage.Catalog, locks *lock.Manager, log *wal.Log) *Manager {
	return &Manager{cat: cat, locks: locks, log: log, snaps: newSnapshotTable()}
}

// Checkpoint snapshots the committed state at the current commit clock
// and retires the log before it, while transactions go on. Under commitMu
// — so the log ends with the commit record of the clock's CSN c — it pins
// a snapshot at c (Vacuum keeps what c sees) and switches the log to a new
// segment, which repeats the undecided prepares and the decisions. Then,
// with commits running again, the log writes the catalog as of c and
// deletes the old segment (wal.Log.Seal). Checkpoints run one at a time.
func (m *Manager) Checkpoint() error {
	if m.log == nil {
		return errors.New("txn: checkpoint: no log")
	}
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	m.commitMu.Lock()
	handle, csn := m.snaps.register(&m.clock)
	seg, err := m.log.Switch()
	m.commitMu.Unlock()
	defer m.snaps.release(handle)
	if err != nil {
		return err
	}
	return m.log.Seal(seg, m.cat, csn)
}

// Catalog exposes the underlying catalog (read-mostly helpers, DDL).
func (m *Manager) Catalog() *storage.Catalog { return m.cat }

// SetObserver installs an operation observer (nil to clear).
func (m *Manager) SetObserver(o Observer) {
	m.obsMu.Lock()
	m.observer = o
	m.obsMu.Unlock()
}

func (m *Manager) obs() Observer {
	m.obsMu.RLock()
	defer m.obsMu.RUnlock()
	return m.observer
}

// CreateTable creates a table and logs the DDL for recovery.
func (m *Manager) CreateTable(name string, schema *types.Schema) (*storage.Table, error) {
	t, err := m.cat.Create(name, schema)
	if err != nil {
		return nil, err
	}
	if m.log != nil {
		if err := m.log.Append(wal.CreateTable(name, schema)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// CreateIndex builds an equality index and logs the DDL for recovery.
func (m *Manager) CreateIndex(table, index string, columns []string) error {
	tbl, err := m.cat.Get(table)
	if err != nil {
		return err
	}
	if err := tbl.CreateIndex(index, columns...); err != nil {
		return err
	}
	if m.log != nil {
		return m.log.Append(wal.CreateIndex(tbl.Name(), index, columns))
	}
	return nil
}

// writeRef remembers one write so commit can log and stamp the row and
// abort can roll it back; insert marks the write that created the row.
type writeRef struct {
	table  *storage.Table
	rowID  storage.RowID
	insert bool
}

// Txn is one classical transaction. A Txn is not safe for concurrent use by
// multiple goroutines (one connection = one transaction, as in the paper's
// MySQL setup).
type Txn struct {
	id       uint64
	mgr      *Manager
	level    IsolationLevel
	state    State
	undo     []writeRef
	prepared bool // Prepare logged the redo: commit logs only its record

	snap       storage.Snapshot // SnapshotIsolation read view
	snapHandle uint64           // registration in the manager's snapshot table
}

// Begin starts a transaction at the given isolation level.
func (m *Manager) Begin(level IsolationLevel) (*Txn, error) {
	id := m.nextTx.Add(1)
	t := &Txn{id: id, mgr: m, level: level}
	if level == SnapshotIsolation {
		handle, csn := m.snaps.register(&m.clock)
		t.snap = storage.Snapshot{CSN: csn, Self: id}
		t.snapHandle = handle
	}
	return t, nil
}

// ID returns the transaction id.
func (t *Txn) ID() uint64 { return t.id }

// State returns the lifecycle state.
func (t *Txn) State() State { return t.state }

// RefreshSnapshot advances a snapshot-isolated transaction's read view to
// view's CSN (never backward). The run scheduler refreshes members to the
// evaluation round's snapshot when delivering an entangled answer, so the
// transaction's subsequent reads are consistent with the state the answer
// was computed against.
func (t *Txn) RefreshSnapshot(view storage.Snapshot) {
	if t.level != SnapshotIsolation || view.CSN <= t.snap.CSN {
		return
	}
	t.snap.CSN = view.CSN
	t.mgr.snaps.update(t.snapHandle, view.CSN)
}

func (t *Txn) releaseSnapshot() {
	if t.snapHandle != 0 {
		t.mgr.snaps.release(t.snapHandle)
		t.snapHandle = 0
	}
}

func (t *Txn) ensureActive() error {
	if t.state != Active {
		return ErrNotActive
	}
	return nil
}

// lockFreeReads reports whether this transaction reads through its
// snapshot instead of shared locks.
func (t *Txn) lockFreeReads() bool { return t.level == SnapshotIsolation }

// lockTableShared acquires a table-level S lock (the paper's read-lock
// granularity), waiting if it must.
func (t *Txn) lockTableShared(table string) error {
	return t.mgr.locks.Acquire(t.id, lock.TableRow{Table: table, Row: lock.AllRows}, lock.S)
}

// LockTableShared takes a table-level shared lock on behalf of the
// transaction without reading and without waiting (lock.ErrWouldBlock when
// it is not free at once) — the entangled layer's quasi-read locks (§3.3.3),
// taken on the scheduler goroutine, which never sleeps in the lock manager.
func (t *Txn) LockTableShared(table string) error {
	if err := t.ensureActive(); err != nil {
		return err
	}
	return t.mgr.locks.TryAcquire(t.id, lock.TableRow{Table: table, Row: lock.AllRows}, lock.S)
}

// statementEnd implements the ReadCommitted relaxation: shared locks are
// surrendered once the statement completes. (Snapshot isolation takes no
// shared locks in the first place.)
func (t *Txn) statementEnd() {
	if t.level == ReadCommitted {
		t.mgr.locks.ReleaseShared(t.id)
	}
}

// Scan returns every row of the table: under the locking levels via a
// shared table lock over the newest committed state, under snapshot
// isolation lock-free through the transaction's snapshot.
func (t *Txn) Scan(table string) ([]types.Tuple, error) {
	rows, _, err := t.scan(table, false)
	return rows, err
}

// ScanIDs returns every (RowID, row) pair, with the same locking rules as
// Scan.
func (t *Txn) ScanIDs(table string) (ids []storage.RowID, rows []types.Tuple, err error) {
	rows, ids, err = t.scan(table, true)
	return ids, rows, err
}

func (t *Txn) scan(table string, wantIDs bool) ([]types.Tuple, []storage.RowID, error) {
	if err := t.ensureActive(); err != nil {
		return nil, nil, err
	}
	tbl, err := t.mgr.cat.Get(table)
	if err != nil {
		return nil, nil, err
	}
	var rows []types.Tuple
	var ids []storage.RowID
	collect := func(id storage.RowID, row types.Tuple) bool {
		if wantIDs {
			ids = append(ids, id)
		}
		rows = append(rows, row.Clone())
		return true
	}
	if t.lockFreeReads() {
		tbl.ScanAsOf(t.snap, collect)
	} else {
		if err := t.lockTableShared(table); err != nil {
			return nil, nil, err
		}
		defer t.statementEnd()
		tbl.ScanTx(t.id, collect)
	}
	if o := t.mgr.obs(); o != nil {
		o.OnRead(t.id, tbl.Name(), int64(lock.AllRows))
	}
	return rows, ids, nil
}

// LookupIDs returns the ids and rows of rows whose columns equal key.
// Under the locking levels it locks at row granularity like an InnoDB index
// read: IS on the table plus S on each matching row, so point reads by
// different transactions on different rows do not force table-level
// upgrades. (Phantoms are possible against concurrent inserts; use Scan for
// a full-table read lock, which is what quasi-read locking uses.) Under
// snapshot isolation it is lock-free.
func (t *Txn) LookupIDs(table string, columns []string, key types.Tuple) ([]storage.RowID, []types.Tuple, error) {
	if err := t.ensureActive(); err != nil {
		return nil, nil, err
	}
	tbl, err := t.mgr.cat.Get(table)
	if err != nil {
		return nil, nil, err
	}
	var outIDs []storage.RowID
	var out []types.Tuple
	if t.lockFreeReads() {
		outIDs, out, err = tbl.LookupRowsAsOf(t.snap, columns, key)
		if err != nil {
			return nil, nil, err
		}
	} else {
		if err := t.mgr.locks.Acquire(t.id, lock.TableRow{Table: table, Row: lock.AllRows}, lock.IS); err != nil {
			return nil, nil, err
		}
		defer t.statementEnd()
		ids, err := tbl.LookupTx(t.id, columns, key)
		if err != nil {
			return nil, nil, err
		}
		for _, id := range ids {
			if err := t.mgr.locks.Acquire(t.id, lock.TableRow{Table: table, Row: int64(id)}, lock.S); err != nil {
				return nil, nil, err
			}
			if row, ok := tbl.GetTx(t.id, id); ok {
				outIDs = append(outIDs, id)
				out = append(out, row)
			}
		}
	}
	if o := t.mgr.obs(); o != nil {
		o.OnRead(t.id, tbl.Name(), int64(lock.AllRows))
	}
	return outIDs, out, nil
}

// lockForWrite takes IX on the table and X on the row. Writes keep
// exclusive locks at every isolation level — MVCC removes read locks, not
// write serialization.
func (t *Txn) lockForWrite(table string, rowID storage.RowID) error {
	if err := t.mgr.locks.Acquire(t.id, lock.TableRow{Table: table, Row: lock.AllRows}, lock.IX); err != nil {
		return err
	}
	return t.mgr.locks.Acquire(t.id, lock.TableRow{Table: table, Row: int64(rowID)}, lock.X)
}

// checkWriteConflict enforces first-committer-wins for snapshot isolation:
// with the row's X lock held, the newest committed version must not
// postdate the snapshot.
func (t *Txn) checkWriteConflict(tbl *storage.Table, id storage.RowID) error {
	if t.level != SnapshotIsolation {
		return nil
	}
	if csn, ok := tbl.CommittedCSN(id); ok && csn > t.snap.CSN {
		return fmt.Errorf("%w: %s row %d committed at CSN %d after snapshot %d",
			ErrWriteConflict, tbl.Name(), id, csn, t.snap.CSN)
	}
	return nil
}

// Insert adds a row, locking table IX first (which serializes against
// whole-table read lockers) and then the new row X. The row is installed as
// an uncommitted version, invisible to every other transaction until
// commit stamps it.
func (t *Txn) Insert(table string, row types.Tuple) (storage.RowID, error) {
	if err := t.ensureActive(); err != nil {
		return storage.InvalidRowID, err
	}
	tbl, err := t.mgr.cat.Get(table)
	if err != nil {
		return storage.InvalidRowID, err
	}
	if err := t.mgr.locks.Acquire(t.id, lock.TableRow{Table: table, Row: lock.AllRows}, lock.IX); err != nil {
		return storage.InvalidRowID, err
	}
	id, err := tbl.InsertTx(t.id, row)
	if err != nil {
		return storage.InvalidRowID, err
	}
	t.wrote(tbl, id, true)
	if err := t.mgr.locks.Acquire(t.id, lock.TableRow{Table: table, Row: int64(id)}, lock.X); err != nil {
		return storage.InvalidRowID, err
	}
	return id, nil
}

// Update replaces the row at id with a new uncommitted version.
func (t *Txn) Update(table string, id storage.RowID, row types.Tuple) error {
	if err := t.ensureActive(); err != nil {
		return err
	}
	tbl, err := t.mgr.cat.Get(table)
	if err != nil {
		return err
	}
	if err := t.lockForWrite(table, id); err != nil {
		return err
	}
	if err := t.checkWriteConflict(tbl, id); err != nil {
		return err
	}
	if _, err := tbl.UpdateTx(t.id, id, row); err != nil {
		return err
	}
	t.wrote(tbl, id, false)
	return nil
}

// Delete removes the row at id with an uncommitted tombstone.
func (t *Txn) Delete(table string, id storage.RowID) error {
	if err := t.ensureActive(); err != nil {
		return err
	}
	tbl, err := t.mgr.cat.Get(table)
	if err != nil {
		return err
	}
	if err := t.lockForWrite(table, id); err != nil {
		return err
	}
	if err := t.checkWriteConflict(tbl, id); err != nil {
		return err
	}
	if _, err := tbl.DeleteTx(t.id, id); err != nil {
		return err
	}
	t.wrote(tbl, id, false)
	return nil
}

func (t *Txn) wrote(tbl *storage.Table, id storage.RowID, insert bool) {
	t.undo = append(t.undo, writeRef{table: tbl, rowID: id, insert: insert})
	if o := t.mgr.obs(); o != nil {
		o.OnWrite(t.id, tbl.Name(), int64(id))
	}
}

// appendRedo appends t's redo to b: per written row, in first-write order,
// one record per version t installed, carrying the stored image: Insert for
// the first version of a row t inserted, Delete for a tombstone, else Update.
func (t *Txn) appendRedo(b *redoBatch) {
	var logged map[writeRef]bool // rows written more than once, once logged
	for _, w := range t.undo {
		b.rows = w.table.AppendTxRows(b.rows[:0], t.id, w.rowID)
		if len(b.rows) > 1 {
			key := writeRef{table: w.table, rowID: w.rowID}
			if logged[key] {
				continue
			}
			if logged == nil {
				logged = make(map[writeRef]bool)
			}
			logged[key] = true
		}
		for k, row := range b.rows {
			r := wal.Record{Type: wal.RecUpdate, Tx: wal.TxID(t.id), Table: w.table.Name(), RowID: int64(w.rowID), Row: row}
			switch {
			case row == nil:
				r.Type = wal.RecDelete
			case k == 0 && w.insert:
				r.Type = wal.RecInsert
			}
			b.recs = append(b.recs, r)
		}
	}
}

// redoBatch collects the records of one log append. Its slices are reused
// from batch to batch; AppendBatch encodes the records before it returns.
type redoBatch struct {
	recs []wal.Record
	ptrs []*wal.Record
	rows []types.Tuple // appendRedo's reused buffer
}

// append writes the collected records with one AppendBatch and empties the
// batch, dropping the records' references to row images.
func (b *redoBatch) append(log *wal.Log) error {
	for i := range b.recs {
		b.ptrs = append(b.ptrs, &b.recs[i])
	}
	err := log.AppendBatch(b.ptrs)
	clear(b.recs)
	b.recs, b.ptrs = b.recs[:0], b.ptrs[:0]
	if cap(b.recs) > 4096 { // a bulk transaction's buffers are not kept
		b.recs, b.ptrs = nil, nil
	}
	return err
}

// stamp marks every version the transaction wrote as committed at csn.
func (t *Txn) stamp(csn uint64) {
	for _, w := range t.undo {
		w.table.Stamp(t.id, w.rowID, csn)
	}
}

// finishCommitted transitions the transaction to Committed and releases its
// resources.
func (t *Txn) finishCommitted() {
	t.state = Committed
	t.undo = nil
	t.releaseSnapshot()
	t.mgr.locks.ReleaseAll(t.id)
	if o := t.mgr.obs(); o != nil {
		o.OnCommit(t.id)
	}
}

// Commit makes the transaction's writes durable and visible, and releases
// its locks: CommitUnits over one single-transaction unit.
func (t *Txn) Commit() error {
	return t.mgr.CommitUnits([][]*Txn{{t}})
}

// Abort rolls back the transaction by removing its uncommitted versions
// and releases its locks; only a prepared transaction logs its abort.
// Abort of a non-active transaction is a no-op.
func (t *Txn) Abort() error {
	if t.state != Active {
		return nil
	}
	for i := len(t.undo) - 1; i >= 0; i-- {
		w := t.undo[i]
		w.table.Rollback(t.id, w.rowID)
	}
	if t.prepared {
		if err := t.mgr.log.Append(wal.Abort(wal.TxID(t.id))); err != nil {
			return err
		}
	}
	t.state = Aborted
	t.undo = nil
	t.releaseSnapshot()
	t.mgr.locks.ReleaseAll(t.id)
	if o := t.mgr.obs(); o != nil {
		o.OnAbort(t.id)
	}
	return nil
}

// CommitUnits commits several independent commit units — each a single
// transaction or a whole entanglement group — through one batched WAL
// append and at most one fsync (group commit across groups; the run
// scheduler retires every committable group of a run this way). Atomicity
// is per unit: a unit's redo records precede its one commit record — a
// Commit for a single transaction, a GroupCommit for several — which
// carries the unit's CSN, so recovery after a crash mid-batch replays a
// prefix of whole units, never a partial group. A unit that wrote nothing
// logs nothing; a prepared transaction's redo is already in the log.
// Version stamping happens for all units before one clock publication, so
// snapshot readers see the entire batch appear atomically. All
// transactions must be active; on a WAL error no unit commits.
func (m *Manager) CommitUnits(units [][]*Txn) error {
	for _, unit := range units {
		for _, t := range unit {
			if t.state != Active {
				return fmt.Errorf("%w: transaction %d is %v", ErrNotActive, t.id, t.state)
			}
		}
	}
	m.commitMu.Lock()
	next := m.clock.Load()
	unitCSN := m.unitCSN[:0]
	b := &m.redo
	for _, unit := range units {
		var csn uint64
		for _, t := range unit {
			if len(t.undo) > 0 {
				next++
				csn = next
				break
			}
		}
		unitCSN = append(unitCSN, csn)
		if csn == 0 || m.log == nil {
			continue
		}
		for _, t := range unit {
			if !t.prepared {
				t.appendRedo(b)
			}
		}
		if len(unit) == 1 {
			b.recs = append(b.recs, *wal.Commit(wal.TxID(unit[0].id), csn))
			continue
		}
		group := make([]wal.TxID, len(unit))
		for j, t := range unit {
			group[j] = wal.TxID(t.id)
		}
		b.recs = append(b.recs, *wal.GroupCommit(group, csn))
	}
	m.unitCSN = unitCSN
	if m.log != nil {
		if err := b.append(m.log); err != nil {
			m.commitMu.Unlock()
			return err
		}
	}
	for i, unit := range units {
		if unitCSN[i] == 0 {
			continue
		}
		for _, t := range unit {
			t.stamp(unitCSN[i])
		}
	}
	if next != m.clock.Load() {
		m.clock.Store(next)
	}
	m.commitMu.Unlock()
	for _, unit := range units {
		for _, t := range unit {
			t.finishCommitted()
		}
	}
	return nil
}
