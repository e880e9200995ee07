package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count. All methods are
// safe for concurrent use; Add is a single atomic add.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
//
//d2x:noalloc
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n may be 0; negative deltas are for Reset only).
//
//d2x:noalloc
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) reset() { c.v.Store(0) }

// counterShards is the fixed cell count of a ShardedCounter: a power of
// two so the hint folds with a mask, and enough cells that 8–16 hot
// goroutines land on distinct cache lines with high probability.
const counterShards = 16

// counterCell is one shard, padded out to a 64-byte cache line so
// neighbouring cells never false-share under concurrent increments.
type counterCell struct {
	v atomic.Int64
	_ [56]byte
}

// ShardedCounter is a Counter spread over cache-line-padded cells for
// write paths hot enough that a single shared atomic serializes cores
// (the per-command call counters under many concurrent sessions).
// Callers pass a cheap affinity hint — any value stable per goroutine
// or per session, e.g. the session ID — to pick a cell; correctness
// does not depend on the hint (a constant hint degrades to a plain
// Counter). Value sums the cells, so totals stay exact.
type ShardedCounter struct {
	cells [counterShards]counterCell
}

// Inc adds 1 to the cell selected by hint.
//
//d2x:noalloc
func (c *ShardedCounter) Inc(hint uint64) { c.cells[hint&(counterShards-1)].v.Add(1) }

// Add adds n to the cell selected by hint.
//
//d2x:noalloc
func (c *ShardedCounter) Add(hint uint64, n int64) { c.cells[hint&(counterShards-1)].v.Add(n) }

// Value returns the exact total across cells. Each cell is read with an
// atomic load; a value read while writers run is a consistent-enough
// cut, same as Counter under concurrent Inc.
func (c *ShardedCounter) Value() int64 {
	var total int64
	for i := range c.cells {
		total += c.cells[i].v.Load()
	}
	return total
}

func (c *ShardedCounter) reset() {
	for i := range c.cells {
		c.cells[i].v.Store(0)
	}
}

// Gauge is a point-in-time value with a high-water mark, e.g. live
// debug sessions. Set and Add maintain Max with a CAS loop that almost
// always succeeds on the first try.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set stores the current value and raises the high-water mark.
//
//d2x:noalloc
func (g *Gauge) Set(n int64) {
	g.v.Store(n)
	g.raise(n)
}

// Add adjusts the current value by delta and raises the high-water mark.
//
//d2x:noalloc
func (g *Gauge) Add(delta int64) {
	g.raise(g.v.Add(delta))
}

//d2x:noalloc
func (g *Gauge) raise(n int64) {
	for {
		cur := g.max.Load()
		if n <= cur || g.max.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max returns the high-water mark.
func (g *Gauge) Max() int64 { return g.max.Load() }

func (g *Gauge) reset() {
	g.v.Store(0)
	g.max.Store(0)
}

// histBuckets is the fixed bucket count of a Histogram: bucket i holds
// samples whose nanosecond duration has bit length i, i.e. durations in
// [2^(i-1), 2^i). 48 buckets cover up to ~3.2 days, far beyond any
// debugger command.
const histBuckets = 48

// Histogram is a fixed-bucket log2 latency histogram. Observe is a
// handful of atomic adds — no locks, no allocation — so it is safe on
// the shared-tables read path. Quantiles are estimated at the geometric
// midpoint of the holding bucket, which for log2 buckets bounds the
// relative error at ~±41%: plenty for "did xbt regress 25%?" questions
// when comparing like against like.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNS(int64(d)) }

// ObserveNS records one duration given in nanoseconds.
//
//d2x:noalloc
func (h *Histogram) ObserveNS(ns int64) {
	if ns < 0 {
		ns = 0
	}
	i := bits.Len64(uint64(ns))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Since observes the time elapsed from start. A zero start (observation
// disabled when the operation began) records nothing, so callers can
// write `defer h.Since(obs.Now())` unconditionally.
func (h *Histogram) Since(start time.Time) {
	if start.IsZero() {
		return
	}
	h.Observe(time.Since(start))
}

// SinceNS observes the time elapsed from a NowNanos timestamp. A zero
// start (observation disabled when the operation began) records nothing.
//
//d2x:noalloc
func (h *Histogram) SinceNS(startNS int64) {
	if startNS == 0 {
		return
	}
	h.ObserveNS(NowNanos() - startNS)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// SumNS returns the summed durations in nanoseconds.
func (h *Histogram) SumNS() int64 { return h.sum.Load() }

// MaxNS returns the largest observed duration in nanoseconds.
func (h *Histogram) MaxNS() int64 { return h.max.Load() }

// Quantile estimates the q-quantile (0 < q <= 1) in nanoseconds from the
// bucket counts: the cumulative count crosses q*total in some bucket,
// and the estimate is that bucket's geometric midpoint.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			return bucketMid(i)
		}
	}
	return h.max.Load()
}

// bucketMid returns the geometric midpoint of bucket i, the estimate
// Quantile reports. Bucket 0 holds only zero durations.
func bucketMid(i int) int64 {
	switch i {
	case 0:
		return 0
	case 1:
		return 1
	}
	// Bucket i covers [2^(i-1), 2^i); midpoint 1.5 * 2^(i-1) = 3<<(i-2).
	return 3 << (i - 2)
}

func (h *Histogram) reset() {
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// Registry holds named metrics and one trace ring. Registration uses
// sync.Map (read-mostly after startup; no mutex); values update via
// atomics only.
type Registry struct {
	counters sync.Map // string -> *Counter
	sharded  sync.Map // string -> *ShardedCounter
	gauges   sync.Map // string -> *Gauge
	hists    sync.Map // string -> *Histogram
	ring     *Ring
}

// NewRegistry returns an empty registry with a trace ring of the given
// capacity (rounded up to a power of two; 0 uses DefaultRingSize).
func NewRegistry(ringSize int) *Registry {
	return &Registry{ring: NewRing(ringSize)}
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name string) *Counter {
	if v, ok := r.counters.Load(name); ok {
		return v.(*Counter)
	}
	v, _ := r.counters.LoadOrStore(name, &Counter{})
	return v.(*Counter)
}

// ShardedCounter returns the named sharded counter, registering it on
// first use. Sharded counters share the counter namespace in snapshots
// (their summed value appears under Counters), so a name should not be
// used for both a Counter and a ShardedCounter.
func (r *Registry) ShardedCounter(name string) *ShardedCounter {
	if v, ok := r.sharded.Load(name); ok {
		return v.(*ShardedCounter)
	}
	v, _ := r.sharded.LoadOrStore(name, &ShardedCounter{})
	return v.(*ShardedCounter)
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if v, ok := r.gauges.Load(name); ok {
		return v.(*Gauge)
	}
	v, _ := r.gauges.LoadOrStore(name, &Gauge{})
	return v.(*Gauge)
}

// Histogram returns the named histogram, registering it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if v, ok := r.hists.Load(name); ok {
		return v.(*Histogram)
	}
	v, _ := r.hists.LoadOrStore(name, &Histogram{})
	return v.(*Histogram)
}

// Ring returns the registry's trace ring.
//
//d2x:noalloc
func (r *Registry) Ring() *Ring { return r.ring }

// Reset zeroes every registered metric in place (handles stay valid)
// and clears the trace ring.
func (r *Registry) Reset() {
	r.counters.Range(func(_, v any) bool { v.(*Counter).reset(); return true })
	r.sharded.Range(func(_, v any) bool { v.(*ShardedCounter).reset(); return true })
	r.gauges.Range(func(_, v any) bool { v.(*Gauge).reset(); return true })
	r.hists.Range(func(_, v any) bool { v.(*Histogram).reset(); return true })
	r.ring.Reset()
}
