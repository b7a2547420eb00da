// Package lock implements the hierarchical lock manager the transaction
// layers use for Strict Two-Phase Locking: table-level intention and
// absolute locks (IS, IX, S, X) and row-level locks (S, X), with
// waits-for-graph deadlock detection, FIFO queuing (a request may not
// overtake an earlier conflicting waiter, which prevents reader storms from
// starving upgraders), and an optional wait timeout.
//
// The lock table is sharded: the resource's table name hashes to one of N
// independently-mutexed shards, so a table lock and all row locks beneath it
// live in the same shard (multi-granularity grant decisions stay local)
// while traffic on distinct tables never convoys on a shared mutex. Deadlock
// detection is the only cross-shard operation: a blocked requester snapshots
// the global waits-for graph by visiting every shard in index order, holding
// no shard lock of its own while it does, so detection cannot deadlock with
// the grant path.
//
// This is the substrate the paper delegates to InnoDB's lock manager; §3.3.3
// notes that full entangled isolation can be enforced with Strict 2PL (plus
// group commits), and §4 that isolation relaxations fall out of altering how
// long locks are held — which internal/txn exploits for its read-committed
// level.
package lock

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Mode is a lock mode.
type Mode uint8

// Lock modes. Intention modes apply to tables only.
const (
	IS Mode = iota // intention shared (table): S row locks beneath
	IX             // intention exclusive (table): X row locks beneath
	S              // shared
	X              // exclusive
)

func (m Mode) String() string {
	switch m {
	case IS:
		return "IS"
	case IX:
		return "IX"
	case S:
		return "S"
	case X:
		return "X"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// compatible is the classical multi-granularity compatibility matrix.
var compatible = [4][4]bool{
	IS: {IS: true, IX: true, S: true, X: false},
	IX: {IS: true, IX: true, S: false, X: false},
	S:  {IS: true, IX: false, S: true, X: false},
	X:  {IS: false, IX: false, S: false, X: false},
}

// Errors returned by Acquire and TryAcquire.
var (
	ErrDeadlock   = errors.New("lock: deadlock detected, requester chosen as victim")
	ErrTimeout    = errors.New("lock: wait timed out")
	ErrWouldBlock = errors.New("lock: not grantable without waiting")
)

// TableRow addresses a lockable object: a whole table (Row == AllRows) or a
// single row.
type TableRow struct {
	Table string
	Row   int64
}

// AllRows as the Row field addresses the table itself.
const AllRows int64 = -1

// modeSet is a bitmask over Mode.
type modeSet uint8

func (s modeSet) has(m Mode) bool     { return s&(1<<m) != 0 }
func (s modeSet) with(m Mode) modeSet { return s | (1 << m) }

// covers reports whether holding s already implies mode m (X covers
// everything; S covers IS; IX covers IS).
func (s modeSet) covers(m Mode) bool {
	if s.has(m) || s.has(X) {
		return true
	}
	if m == IS && (s.has(S) || s.has(IX)) {
		return true
	}
	return false
}

// compatibleWith reports whether every mode in s is compatible with m.
func (s modeSet) compatibleWith(m Mode) bool {
	for mm := IS; mm <= X; mm++ {
		if s.has(mm) && !compatible[mm][m] {
			return false
		}
	}
	return true
}

// waiter is one queued request.
type waiter struct {
	tx   uint64
	mode Mode
	seq  uint64
}

type entry struct {
	holders map[uint64]modeSet
	queue   []waiter // arrival order
}

func (e *entry) dequeue(seq uint64) {
	for i, w := range e.queue {
		if w.seq == seq {
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			return
		}
	}
}

// shard is one independently-locked slice of the lock table. Every object of
// one table hashes to the same shard, so grants, queues, and wakeups for an
// entry are entirely shard-local.
type shard struct {
	idx   int // position in Manager.shards
	mu    sync.Mutex
	cond  *sync.Cond
	locks map[TableRow]*entry
	held  map[uint64]map[TableRow]modeSet // per-transaction inventory, this shard

	// Emptied entries and inventories, kept for reuse (up to maxFree each):
	// a request that conflicts with nothing then allocates nothing.
	freeEntries []*entry
	freeInvs    []map[TableRow]modeSet

	// Stats (guarded by mu).
	acquisitions int64
	waits        int64
	deadlocks    int64
}

// DefaultShards is the shard count New uses.
const DefaultShards = 16

// maxFree bounds each of a shard's lists of emptied entries and
// inventories.
const maxFree = 64

// entry returns obj's entry, creating it (from the free list when it can)
// if obj has none.
func (sh *shard) entry(obj TableRow) *entry {
	e := sh.locks[obj]
	if e == nil {
		if n := len(sh.freeEntries); n > 0 {
			e = sh.freeEntries[n-1]
			sh.freeEntries = sh.freeEntries[:n-1]
		} else {
			e = &entry{holders: make(map[uint64]modeSet)}
		}
		sh.locks[obj] = e
	}
	return e
}

// unhold drops tx's holding of obj's entry e, and the entry itself once
// nobody holds or waits for it.
func (sh *shard) unhold(tx uint64, obj TableRow, e *entry) {
	delete(e.holders, tx)
	if len(e.holders) == 0 && len(e.queue) == 0 {
		delete(sh.locks, obj)
		if len(sh.freeEntries) < maxFree {
			sh.freeEntries = append(sh.freeEntries, e)
		}
	}
}

// inventory returns tx's inventory in this shard, creating it (from the
// free list when it can) if tx has none.
func (sh *shard) inventory(tx uint64) (inv map[TableRow]modeSet, fresh bool) {
	if inv = sh.held[tx]; inv != nil {
		return inv, false
	}
	if n := len(sh.freeInvs); n > 0 {
		inv = sh.freeInvs[n-1]
		sh.freeInvs = sh.freeInvs[:n-1]
	} else {
		inv = make(map[TableRow]modeSet)
	}
	sh.held[tx] = inv
	return inv, true
}

// dropInventory forgets tx's emptied or released inventory inv.
func (sh *shard) dropInventory(tx uint64, inv map[TableRow]modeSet) {
	delete(sh.held, tx)
	if len(sh.freeInvs) < maxFree {
		clear(inv)
		sh.freeInvs = append(sh.freeInvs, inv)
	}
}

// Manager is the lock manager. The zero value is not usable; call New or
// NewSharded.
type Manager struct {
	shards  []*shard
	timeout time.Duration // 0 = wait forever
	nextSeq atomic.Uint64 // global FIFO ticket counter
	touched [touchedSlots]touchedSlot
}

// touchedSlots partitions the record of which shards each transaction holds
// locks in, by transaction id, so unrelated transactions seldom share its
// mutex.
const touchedSlots = 64

// touchedSlot maps a transaction to the shards it holds locks in: bit i%64
// for shard i. A release visits only those shards.
type touchedSlot struct {
	mu sync.Mutex
	m  map[uint64]uint64
}

// touch records that tx holds a lock in shard i. The caller holds that
// shard's mutex.
func (m *Manager) touch(tx uint64, i int) {
	ts := &m.touched[tx%touchedSlots]
	ts.mu.Lock()
	if ts.m == nil {
		ts.m = make(map[uint64]uint64)
	}
	ts.m[tx] |= 1 << (i % 64)
	ts.mu.Unlock()
}

// shardMask returns the shards tx holds locks in as touch recorded them,
// forgetting them when forget is set (a release of everything).
func (m *Manager) shardMask(tx uint64, forget bool) uint64 {
	ts := &m.touched[tx%touchedSlots]
	ts.mu.Lock()
	defer ts.mu.Unlock()
	mask := ts.m[tx]
	if forget {
		delete(ts.m, tx)
	}
	return mask
}

// New returns a lock manager with DefaultShards shards. waitTimeout of 0
// means waiters block until granted or deadlocked.
func New(waitTimeout time.Duration) *Manager {
	return NewSharded(waitTimeout, DefaultShards)
}

// NewSharded returns a lock manager whose lock table is split across n
// independently-mutexed shards (n < 1 falls back to DefaultShards).
func NewSharded(waitTimeout time.Duration, n int) *Manager {
	if n < 1 {
		n = DefaultShards
	}
	m := &Manager{timeout: waitTimeout, shards: make([]*shard, n)}
	for i := range m.shards {
		s := &shard{
			idx:   i,
			locks: make(map[TableRow]*entry),
			held:  make(map[uint64]map[TableRow]modeSet),
		}
		s.cond = sync.NewCond(&s.mu)
		m.shards[i] = s
	}
	return m
}

// shardFor hashes the resource's table name (inline FNV-1a: this sits on
// every lock operation, so no hasher or []byte allocations), so table locks
// and the row locks beneath them share a shard.
func (m *Manager) shardFor(obj TableRow) *shard {
	if len(m.shards) == 1 {
		return m.shards[0]
	}
	h := uint32(2166136261)
	for i := 0; i < len(obj.Table); i++ {
		h ^= uint32(obj.Table[i])
		h *= 16777619
	}
	return m.shards[h%uint32(len(m.shards))]
}

// Acquire blocks until tx holds mode on obj, the wait times out, or the
// request would deadlock (in which case the requester is the victim and
// ErrDeadlock is returned). Acquire is re-entrant: a transaction already
// holding a covering mode returns immediately.
//
// Grant policy: a request is granted when it is compatible with all other
// holders and does not overtake an earlier-queued conflicting waiter.
// Upgrades (the transaction already holds a weaker mode on the object) are
// exempt from the no-overtake rule, since a queued waiter may itself be
// blocked on the upgrader's current holding.
func (m *Manager) Acquire(tx uint64, obj TableRow, mode Mode) error {
	return m.acquire(tx, obj, mode, true)
}

// TryAcquire grants mode on obj to tx exactly when Acquire would grant it
// at once, and otherwise returns ErrWouldBlock, leaving nothing queued. The
// test and the grant happen under one hold of the shard mutex, so no
// request slips in between — which a Holds-then-Acquire pair cannot promise.
func (m *Manager) TryAcquire(tx uint64, obj TableRow, mode Mode) error {
	return m.acquire(tx, obj, mode, false)
}

func (m *Manager) acquire(tx uint64, obj TableRow, mode Mode, wait bool) error {
	if obj.Row != AllRows && (mode == IS || mode == IX) {
		return fmt.Errorf("lock: intention mode %s on row %v", mode, obj)
	}
	sh := m.shardFor(obj)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	e := sh.entry(obj)
	if e.holders[tx].covers(mode) {
		return nil
	}

	w := waiter{tx: tx, mode: mode, seq: m.nextSeq.Add(1)}
	e.queue = append(e.queue, w)

	var deadline time.Time // set when the request first waits
	waited := false
	var lastBlockers []uint64
	for {
		isUpgrade := e.holders[tx] != 0
		blockers := blockersOf(e, w, isUpgrade)
		if len(blockers) == 0 {
			e.dequeue(w.seq)
			e.holders[tx] = e.holders[tx].with(mode)
			inv, fresh := sh.inventory(tx)
			if fresh {
				m.touch(tx, sh.idx)
			}
			inv[obj] = inv[obj].with(mode)
			sh.acquisitions++
			// A grant can unblock later queue entries that are compatible.
			sh.cond.Broadcast()
			return nil
		}
		if !wait {
			e.dequeue(w.seq)
			return ErrWouldBlock
		}
		// Deadlock check against the waits-for graph derived from the live
		// lock table (cached edges go stale while waiters sleep and would
		// yield false deadlocks). The graph spans shards, so the check drops
		// this shard's mutex, snapshots every shard in index order, and
		// re-validates grantability after relocking (no lost wakeup: the
		// blocker re-check below runs before any cond.Wait). The all-shard
		// sweep runs only when this waiter's outgoing edges changed: a new
		// cycle's final edge is a fresh blocker of whichever waiter
		// completes it, and that waiter sweeps — so every stable cycle is
		// still detected while wakeups that change nothing stay shard-local.
		if !sameBlockerSet(blockers, lastBlockers) {
			lastBlockers = blockers
			sh.mu.Unlock()
			cycle := m.cycleFrom(tx)
			sh.mu.Lock()
			// State may have shifted while the shard lock was dropped;
			// re-check grantability first — a fresh grant beats a
			// possibly-stale cycle verdict.
			if len(blockersOf(e, w, e.holders[tx] != 0)) == 0 {
				continue
			}
			if cycle {
				e.dequeue(w.seq)
				sh.deadlocks++
				sh.cond.Broadcast()
				return ErrDeadlock
			}
		}
		if !waited {
			sh.waits++
			waited = true
			if m.timeout > 0 {
				deadline = time.Now().Add(m.timeout)
			}
		}
		if m.timeout > 0 {
			if time.Now().After(deadline) {
				e.dequeue(w.seq)
				sh.cond.Broadcast()
				return ErrTimeout
			}
			// Bounded wait: arrange a wakeup so the deadline is honored even
			// if nobody releases.
			timer := time.AfterFunc(m.timeout/4+time.Millisecond, func() {
				sh.mu.Lock()
				sh.cond.Broadcast()
				sh.mu.Unlock()
			})
			sh.cond.Wait()
			timer.Stop()
		} else {
			sh.cond.Wait()
		}
	}
}

// sameBlockerSet reports set equality of two blocker lists (order varies
// with map iteration, so compare sorted copies in place).
func sameBlockerSet(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// blockersOf returns the transactions currently preventing w from being
// granted: conflicting holders, plus — unless w is an upgrade — earlier
// queued waiters with conflicting modes (FIFO fairness). Caller holds the
// entry's shard mutex.
func blockersOf(e *entry, w waiter, isUpgrade bool) []uint64 {
	var out []uint64
	for holder, set := range e.holders {
		if holder == w.tx {
			continue
		}
		if !set.compatibleWith(w.mode) {
			out = append(out, holder)
		}
	}
	if !isUpgrade {
		for _, earlier := range e.queue {
			// The queue is seq-sorted: seqs are allocated under the shard
			// mutex and dequeue preserves order.
			if earlier.seq >= w.seq {
				break
			}
			if earlier.tx != w.tx && !compatible[earlier.mode][w.mode] {
				out = append(out, earlier.tx)
			}
		}
	}
	return out
}

// cycleFrom reports whether the waits-for graph — computed fresh from the
// current queues and holders across every shard — contains a cycle through
// start. The caller must hold no shard mutex; shards are visited one at a
// time in index order, so concurrent detectors cannot deadlock on each
// other. The snapshot is not a single atomic cut of the whole table: a
// reported cycle can be stale (already broken by a racing timeout or
// release) or, rarely, assembled from edges that never coexisted. Either
// way the verdict only over-aborts — ErrDeadlock is retryable for every
// caller in this system, and the requester re-checks grantability before
// acting on the verdict — while a genuine stable cycle is always found,
// since its edges persist across any snapshot order.
func (m *Manager) cycleFrom(start uint64) bool {
	edges := make(map[uint64]map[uint64]bool)
	for _, sh := range m.shards {
		sh.mu.Lock()
		for _, e := range sh.locks {
			for _, w := range e.queue {
				bl := blockersOf(e, w, e.holders[w.tx] != 0)
				if len(bl) == 0 {
					continue // grantable; just not woken yet
				}
				set := edges[w.tx]
				if set == nil {
					set = make(map[uint64]bool)
					edges[w.tx] = set
				}
				for _, b := range bl {
					if b != w.tx {
						set[b] = true
					}
				}
			}
		}
		sh.mu.Unlock()
	}
	seen := make(map[uint64]bool)
	var dfs func(u uint64) bool
	dfs = func(u uint64) bool {
		for v := range edges[u] {
			if v == start {
				return true
			}
			if !seen[v] {
				seen[v] = true
				if dfs(v) {
					return true
				}
			}
		}
		return false
	}
	return dfs(start)
}

// ReleaseAll drops every lock held by tx (commit or abort under Strict 2PL)
// and wakes waiters on every shard the transaction touched. It visits only
// those shards.
func (m *Manager) ReleaseAll(tx uint64) {
	mask := m.shardMask(tx, true)
	for i, sh := range m.shards {
		if mask&(1<<(i%64)) == 0 {
			continue
		}
		sh.mu.Lock()
		inv := sh.held[tx]
		if inv == nil {
			sh.mu.Unlock()
			continue
		}
		for obj := range inv {
			if e := sh.locks[obj]; e != nil {
				sh.unhold(tx, obj, e)
			}
		}
		sh.dropInventory(tx, inv)
		sh.cond.Broadcast()
		sh.mu.Unlock()
	}
}

// ReleaseShared drops only the shared-side locks (IS, S) held by tx,
// retaining IX/X — the read-committed relaxation where read locks are
// released early while write locks are held to commit.
func (m *Manager) ReleaseShared(tx uint64) {
	mask := m.shardMask(tx, false)
	for i, sh := range m.shards {
		if mask&(1<<(i%64)) == 0 {
			continue
		}
		sh.mu.Lock()
		inv := sh.held[tx]
		changed := false
		for obj, set := range inv {
			newSet := set &^ ((1 << IS) | (1 << S))
			if newSet == set {
				continue
			}
			changed = true
			e := sh.locks[obj]
			if newSet == 0 {
				delete(inv, obj)
				if e != nil {
					sh.unhold(tx, obj, e)
				}
			} else {
				inv[obj] = newSet
				if e != nil {
					e.holders[tx] = newSet
				}
			}
		}
		if inv != nil && len(inv) == 0 {
			sh.dropInventory(tx, inv)
		}
		if changed {
			sh.cond.Broadcast()
		}
		sh.mu.Unlock()
	}
}

// Holds reports whether tx currently holds a mode covering the request.
func (m *Manager) Holds(tx uint64, obj TableRow, mode Mode) bool {
	sh := m.shardFor(obj)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.held[tx][obj].covers(mode)
}

// HeldCount returns the number of objects tx holds locks on.
func (m *Manager) HeldCount(tx uint64) int {
	n := 0
	for _, sh := range m.shards {
		sh.mu.Lock()
		n += len(sh.held[tx])
		sh.mu.Unlock()
	}
	return n
}

// Stats returns cumulative counters summed over shards: total grants,
// waits, deadlocks.
func (m *Manager) Stats() (acquisitions, waits, deadlocks int64) {
	for _, sh := range m.shards {
		sh.mu.Lock()
		acquisitions += sh.acquisitions
		waits += sh.waits
		deadlocks += sh.deadlocks
		sh.mu.Unlock()
	}
	return
}
