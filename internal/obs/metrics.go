// Package obs is the engine's observability layer: a lock-free metrics
// registry (counters + log-spaced latency histograms), a lifecycle tracer
// (per-query span trees with entanglement-aware merging), and a debug HTTP
// surface. Every type is nil-safe: a nil *Registry hands out nil *Counter
// and *Histogram receivers whose methods are inert, so instrumented hot
// paths cost nothing — no branches beyond the nil check, no allocations —
// when observability is disabled.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonic atomic counter. The zero of usefulness: a nil
// *Counter accepts Add/Load as no-ops, so call sites never guard.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value; 0 on a nil receiver.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram bucket layout: log-spaced duration bounds from 1µs to ~1h,
// four buckets per octave (bound ratio 2^(1/4) ≈ 1.19), so any quantile
// estimate is within a ×1.19 factor of the exact sample. Two overflow
// ends catch out-of-range observations.
const bucketsPerOctave = 4

var bucketBounds = makeBounds()

func makeBounds() []int64 {
	const minNS = int64(time.Microsecond)
	const maxNS = int64(time.Hour)
	var out []int64
	// Geometric progression: each octave [b, 2b) split into
	// bucketsPerOctave geometric steps.
	for b := minNS; b < maxNS; b *= 2 {
		for i := 0; i < bucketsPerOctave; i++ {
			// bound = b * 2^(i/bucketsPerOctave), computed in float then
			// rounded: exactness of bounds does not matter, only that they
			// are sorted and the ratio between neighbors is ~2^(1/4).
			f := float64(b)
			for j := 0; j < i; j++ {
				f *= 1.189207115002721 // 2^(1/4)
			}
			out = append(out, int64(f))
		}
	}
	out = append(out, maxNS)
	return out
}

// Histogram is a fixed-bucket latency histogram with atomic per-bucket
// counts. Observe is lock-free and allocation-free; quantile extraction
// walks the bucket array. A nil *Histogram is inert.
type Histogram struct {
	count atomic.Int64
	sum   atomic.Int64 // nanoseconds
	// buckets[i] counts observations d with bucketBounds[i-1] <= d <
	// bucketBounds[i]; buckets[0] is the underflow (< 1µs) bucket and the
	// last is overflow (>= 1h).
	buckets []atomic.Int64
}

func newHistogram() *Histogram {
	return &Histogram{buckets: make([]atomic.Int64, len(bucketBounds)+1)}
}

// Observe records one duration. No-op on a nil receiver; never allocates.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	h.buckets[bucketIndex(ns)].Add(1)
}

// bucketIndex maps a duration in ns to its bucket. Binary search over the
// precomputed bounds: ~9 comparisons, no allocation.
func bucketIndex(ns int64) int {
	lo, hi := 0, len(bucketBounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if ns < bucketBounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Quantile returns an estimate of the q-quantile (0 < q < 1) of the
// observed durations. The estimate is the geometric midpoint of the
// bucket containing the quantile rank, so it is within one bucket ratio
// (×2^(1/4)) of the exact order statistic. Returns 0 when empty or nil.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	// Nearest-rank: the ceil(q*N)-th order statistic, so high quantiles of
	// small samples land on the large observations (p99 of 2 samples is the
	// max, not the min).
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(len(h.buckets) - 1)
}

// bucketMid returns the geometric midpoint of bucket i's bounds.
func bucketMid(i int) time.Duration {
	switch {
	case i == 0:
		return time.Duration(bucketBounds[0] / 2)
	case i >= len(bucketBounds):
		return time.Duration(bucketBounds[len(bucketBounds)-1])
	default:
		// Geometric mean of the bounds: sqrt(lo*hi), computed in floats —
		// both bounds fit float64 exactly enough for an estimate that is
		// anyway only bucket-accurate.
		lo, hi := float64(bucketBounds[i-1]), float64(bucketBounds[i])
		return time.Duration(int64(math.Sqrt(lo * hi)))
	}
}

// HistogramSnapshot is one histogram's summary in serializable form.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	SumMS float64 `json:"sum_ms"`
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
	P999  float64 `json:"p999_ms"`
	MaxMS float64 `json:"max_ms"` // upper bound of the highest non-empty bucket
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load()}
	s.SumMS = float64(h.sum.Load()) / 1e6
	s.P50MS = float64(h.Quantile(0.50)) / 1e6
	s.P99MS = float64(h.Quantile(0.99)) / 1e6
	s.P999 = float64(h.Quantile(0.999)) / 1e6
	for i := len(h.buckets) - 1; i >= 0; i-- {
		if h.buckets[i].Load() > 0 {
			s.MaxMS = float64(bucketMid(i)) / 1e6
			break
		}
	}
	return s
}

// Registry names and owns counters, gauges, and histograms. Registration
// takes a mutex; the handed-out Counter/Histogram pointers are lock-free
// thereafter. A nil *Registry hands out nil instruments, so a component
// built against a disabled registry is fully inert.
type Registry struct {
	mu     sync.Mutex
	ctrs   map[string]*Counter
	hists  map[string]*Histogram
	gauges map[string]func() int64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:   make(map[string]*Counter),
		hists:  make(map[string]*Histogram),
		gauges: make(map[string]func() int64),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (an inert counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.ctrs[name]
	if c == nil {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
// Returns nil (inert) on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// Gauge registers a callback sampled at snapshot time — the bridge for
// values owned elsewhere (e.g. a streaming pipeline's own atomics). No-op
// on a nil registry.
func (r *Registry) Gauge(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = fn
	r.mu.Unlock()
}

// Snapshot is one consistent read of the whole registry: every counter,
// gauge, and histogram sampled in a single pass under the registration
// lock. Counters registered concurrently with the snapshot appear in the
// next one.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot samples every instrument in one pass. Returns an empty
// snapshot on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.ctrs {
		s.Counters[name] = c.Load()
	}
	for name, fn := range r.gauges {
		s.Counters[name] = fn()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}
