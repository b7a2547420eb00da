package eq

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/types"
)

// Streaming executor: a pull-based nested-loop-with-probe pipeline over the
// joinPlan. Each join level holds one cursor and one batch buffer; rows are
// pulled BatchRows at a time, bound into the slot valuation, filtered by
// the level's pushed-down constraints, and only then does the next level's
// cursor open. Nothing materializes a whole relation: resident state is one
// batch per active level, so memory is O(levels x BatchRows) regardless of
// table size, and the maxGroundings cap stops the outermost pull the
// instant it is reached.
//
// Order preservation is the load-bearing invariant: for the same plan, the
// streaming executor enumerates byte-identical groundings in identical
// order to the materialized reference the tests keep as their oracle,
// because cursors yield rows in storage order and the bind-check-recurse
// structure is unchanged. The exact solver's tie-breaks and seeded
// re-run determinism lean on this.

// DefaultBatchRows is the cursor pull granularity when GroundOptions leaves
// BatchRows zero — the value every evaluation round runs with.
const DefaultBatchRows = 256

// StreamStats accumulates streaming-pipeline accounting across grounding
// calls. Safe to read while a round grounds (the engine's Stats does).
type StreamStats struct {
	rows      atomic.Int64
	peakBatch atomic.Int64
}

// Rows returns the total number of rows pulled through grounding cursors.
func (s *StreamStats) Rows() int64 { return s.rows.Load() }

// PeakBatchRows returns the high-water mark of rows resident in a single
// grounding pipeline's batch buffers — the "working set" the streaming
// rewrite bounds, where the materialized path held whole relations.
func (s *StreamStats) PeakBatchRows() int64 { return s.peakBatch.Load() }

// addRows counts n rows pulled through grounding cursors.
func (s *StreamStats) addRows(n int64) {
	if s != nil && n > 0 {
		s.rows.Add(n)
	}
}

func (s *StreamStats) observePeak(n int64) {
	if s == nil {
		return
	}
	for {
		cur := s.peakBatch.Load()
		if n <= cur || s.peakBatch.CompareAndSwap(cur, n) {
			return
		}
	}
}

// GroundOptions tunes one grounding enumeration.
type GroundOptions struct {
	// MaxGroundings bounds the enumeration (0 = unlimited); hitting the cap
	// terminates the pipeline immediately — no further rows are pulled.
	MaxGroundings int
	// BatchRows is the cursor pull granularity (0 = DefaultBatchRows).
	BatchRows int
	// Stats, when non-nil, accumulates rows-streamed / peak-batch accounting.
	Stats *StreamStats
	// PullDur, when non-nil, observes every cursor batch pull's duration.
	// The nil (disabled) path reads no clock and allocates nothing — the
	// grounding pull loop is a zero-alloc gate.
	PullDur *obs.Histogram
}

// streamLevel is the runtime state of one join level.
type streamLevel struct {
	step *planStep
	cur  RowCursor     // current cursor (scan: cached+rewound; probe: per valuation)
	buf  []types.Tuple // current batch; grows to what the cursor yields, kept across opens
	pos  int

	scanCur   RowCursor     // cached scan cursor, reused via Rewind
	probeVals []types.Value // reusable probe key buffer
}

// groundStream drives one query's streaming join. Its scratch — levels,
// batch buffers, the slot valuation, the dedup index — outlives the query,
// so an Evaluator grounds query after query and round after round through
// one stream without reallocating it.
type groundStream struct {
	plan    *joinPlan
	r       CursorReader
	batch   int
	stats   *StreamStats
	pullDur *obs.Histogram

	vals   []types.Value // the slot valuation
	levels []streamLevel

	ar   *arena
	out  []*Grounding
	seen hashIndex     // out by head and postcondition values
	hp   []types.Value // the candidate grounding's head then postcondition arguments
	max  int
}

// reset points the stream at a new query's plan, keeping its scratch.
func (s *groundStream) reset(plan *joinPlan, r CursorReader, opts GroundOptions) {
	batch := opts.BatchRows
	if batch <= 0 {
		batch = DefaultBatchRows
	}
	s.plan, s.r, s.batch = plan, r, batch
	s.stats, s.pullDur, s.max = opts.Stats, opts.PullDur, opts.MaxGroundings
	s.vals = zeroed(s.vals, len(plan.vars))
	s.levels = resized(s.levels, len(plan.steps))
	for i := range s.levels {
		lv := &s.levels[i]
		*lv = streamLevel{step: &plan.steps[i], buf: lv.buf[:0], probeVals: lv.probeVals[:0]}
	}
	s.out = s.out[:0]
	s.seen.reset()
}

func (s *groundStream) capped() bool {
	return s.max > 0 && len(s.out) >= s.max
}

// open positions level i's cursor at its first row: scan levels reuse one
// cursor per level and rewind it, probe levels (every level with bound
// positions) open a fresh probe keyed by the current valuation.
func (s *groundStream) open(i int) error {
	lv := &s.levels[i]
	step := lv.step
	if len(step.probeCols) == 0 {
		if lv.scanCur == nil {
			var err error
			lv.scanCur, err = s.r.ScanCursor(step.atom.Rel)
			if err != nil {
				return fmt.Errorf("eq: grounding read of %s: %w", step.atom.Rel, err)
			}
		} else {
			lv.scanCur.Rewind()
		}
		lv.cur = lv.scanCur
	} else {
		lv.probeVals = lv.probeVals[:0]
		for _, o := range step.probeKey {
			v, _ := o.get(s.vals) // a probe key is a constant or a bound slot
			lv.probeVals = append(lv.probeVals, v)
		}
		cur, err := s.r.ProbeCursor(step.atom.Rel, step.probeCols, lv.probeVals)
		if err != nil {
			return fmt.Errorf("eq: grounding read of %s: %w", step.atom.Rel, err)
		}
		lv.cur = cur
	}
	lv.buf = lv.buf[:0]
	lv.pos = 0
	return nil
}

// refill pulls the next batch into level i's buffer; false means the cursor
// is exhausted.
func (s *groundStream) refill(i int) (bool, error) {
	lv := &s.levels[i]
	lv.buf = lv.buf[:0]
	lv.pos = 0
	var pullStart time.Time
	if s.pullDur != nil {
		pullStart = time.Now()
	}
	buf, err := lv.cur.Next(lv.buf, s.batch)
	if s.pullDur != nil {
		s.pullDur.Observe(time.Since(pullStart))
	}
	if err != nil {
		return false, fmt.Errorf("eq: grounding read of %s: %w", lv.step.atom.Rel, err)
	}
	lv.buf = buf
	if len(lv.buf) == 0 {
		return false, nil
	}
	s.stats.addRows(int64(len(lv.buf)))
	if s.stats != nil {
		resident := int64(0)
		for j := 0; j <= i; j++ {
			resident += int64(len(s.levels[j].buf))
		}
		s.stats.observePeak(resident)
	}
	return true, nil
}

// join runs levels i.. of the pipeline for the current valuation,
// identical in structure (bind, eager checks, recurse) to the materialized
// executor, but pulling rows batch-wise and stopping the moment the
// grounding cap is hit. A row writes the slots its level binds and the
// next row overwrites them, so nothing is unbound.
func (s *groundStream) join(i int) error {
	if s.capped() {
		return nil
	}
	if i == len(s.levels) {
		return s.emit()
	}
	if err := s.open(i); err != nil {
		return err
	}
	lv := &s.levels[i]
	step := lv.step
	for {
		if s.capped() {
			return nil
		}
		if lv.pos >= len(lv.buf) {
			more, err := s.refill(i)
			if err != nil {
				return err
			}
			if !more {
				return nil
			}
		}
		row := lv.buf[lv.pos]
		lv.pos++
		if len(row) != len(step.args) {
			return fmt.Errorf("eq: atom %s has arity %d but relation has arity %d", step.atom, len(step.args), len(row))
		}
		if !s.bindRow(step, row) {
			continue
		}
		// Pushed-down selections: constraints that became fully bound at
		// this level, applied before any deeper cursor opens.
		ok, err := checkAll(step.checks, s.vals)
		if err != nil {
			return err
		}
		if ok {
			if err := s.join(i + 1); err != nil {
				return err
			}
			// The recursion may have swapped deeper levels' cursors; this
			// level's state is untouched, continue the batch walk.
		}
	}
}

// bindRow matches row against the level's atom, binding the slots the
// level binds; false rejects the row.
func (s *groundStream) bindRow(step *planStep, row types.Tuple) bool {
	for j, op := range step.args {
		v := row[j]
		switch {
		case op.slot == constSlot:
			if !op.val.Equal(v) {
				return false
			}
		case !op.bind:
			if !s.vals[op.slot].Equal(v) {
				return false
			}
		default:
			if op.hasEq && !op.val.Equal(v) {
				return false
			}
			s.vals[op.slot] = v
		}
	}
	return true
}

// emit instantiates the current valuation into a grounding, applying the
// residual constraints (ones no join level fully binds — evaluating them
// surfaces the unbound-variable error for constraints over non-body
// variables, exactly as the materialized path does). A grounding whose
// head and postcondition repeat an earlier one's is dropped: the index
// finds candidates by hash, and equality of the values decides.
func (s *groundStream) emit() error {
	if ok, err := checkAll(s.plan.final, s.vals); !ok {
		return err
	}
	hp := s.hp[:0]
	for _, as := range [2][]slotAtom{s.plan.head, s.plan.post} {
		for i := range as {
			for _, o := range as[i].args {
				v, err := o.get(s.vals)
				if err != nil {
					return err
				}
				hp = append(hp, v)
			}
		}
	}
	s.hp = hp
	h := types.Tuple(hp).Hash()
	if s.seen.lookup(h, func(id int32) bool { return sameArgs(s.out[id], hp) }) >= 0 {
		return nil
	}
	s.seen.add(h)
	s.out = append(s.out, s.ar.grounding(s.plan, hp, s.vals))
	return nil
}

// sameArgs reports whether g's head then postcondition arguments equal hp.
func sameArgs(g *Grounding, hp []types.Value) bool {
	k := 0
	for _, as := range [2][]GroundAtom{g.Head, g.Post} {
		for _, a := range as {
			for _, v := range a.Args {
				if !v.Equal(hp[k]) {
					return false
				}
				k++
			}
		}
	}
	return true
}

// run grounds the stream's query. The groundings live in the stream's
// arena; none at all is a nil slice.
func (s *groundStream) run() ([]*Grounding, error) {
	if err := s.join(0); err != nil || len(s.out) == 0 {
		return nil, err
	}
	return s.ar.pointers(s.out), nil
}

// GroundWith enumerates the groundings of q against r through the
// streaming pipeline. See Ground for the enumeration contract.
func GroundWith(q *Query, r CursorReader, opts GroundOptions) ([]*Grounding, error) {
	return new(Evaluator).Ground(q, r, opts)
}

// Ground enumerates the groundings of q against r: every valuation of the
// body (streaming nested-loop join with pushed-down constraint
// application), instantiated into head and postcondition atoms. Groundings
// are deduplicated by their (head, post) identity and returned in
// enumeration order, which is deterministic for deterministic readers — the
// determinism assumption of Appendix C.1.
//
// The join order and access paths come from the statistics-free planner
// (plan.go); rows flow through pull cursors in bounded batches, so
// grounding a relation never materializes it, and maxGroundings (0 =
// unlimited) terminates the pipeline the instant the cap is hit — the
// safety valve against runaway cross products now also bounds the work, not
// just the output.
func Ground(q *Query, r CursorReader, maxGroundings int) ([]*Grounding, error) {
	return GroundWith(q, r, GroundOptions{MaxGroundings: maxGroundings})
}
