package obs

import (
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket latency/value histogram. Bucket bounds are
// immutable after construction; Observe is lock-free (one atomic add per
// bucket hit plus a CAS loop for the running sum), so concurrent
// observers never lose counts. All methods are no-ops on a nil receiver.
type Histogram struct {
	// bounds are inclusive upper bounds, strictly increasing. counts has
	// len(bounds)+1 entries; the last is the overflow (+Inf) bucket.
	bounds []float64
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	max    atomic.Uint64 // float64 bits of the largest observed value
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	if len(bs) == 0 {
		bs = DefBuckets
	}
	h := &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// DefBuckets is the default bound set: exponential from 1 to ~1e9,
// suitable for nanosecond latencies and generic magnitudes alike.
var DefBuckets = ExpBuckets(1, 4, 16)

// ExpBuckets returns n exponentially growing upper bounds starting at
// start and multiplying by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) {
			break
		}
		if h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	// A zero leaves the sum as it is: an unbounded admission gate
	// observes one per statement, and the sum is a word every core writes.
	for v != 0 {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time histogram summary.
type HistogramSnapshot struct {
	Count         uint64
	Sum           float64
	P50, P95, P99 float64
	// Max is the largest value observed so far (0 when empty). Quantile
	// estimates are clamped to it, so the overflow bucket never reports
	// a value no observation ever reached.
	Max float64
	// Bounds[i] pairs with BucketCounts[i]; the final count (one longer
	// than Bounds) is the overflow bucket.
	Bounds       []float64
	BucketCounts []uint64
}

// Snapshot summarizes the histogram. Quantiles are estimated by linear
// interpolation inside the containing bucket (the standard
// fixed-bucket estimate). Returns the zero snapshot on nil.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds:       h.bounds,
		BucketCounts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		s.BucketCounts[i] = h.counts[i].Load()
		s.Count += s.BucketCounts[i]
	}
	s.Sum = math.Float64frombits(h.sum.Load())
	if m := math.Float64frombits(h.max.Load()); !math.IsInf(m, -1) {
		s.Max = m
	}
	s.P50 = h.quantile(s, 0.50)
	s.P95 = h.quantile(s, 0.95)
	s.P99 = h.quantile(s, 0.99)
	return s
}

// Quantile estimates the q-quantile (0 < q < 1) from current bucket
// counts. Returns 0 on nil or when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return h.quantile(h.Snapshot(), q)
}

func (h *Histogram) quantile(s HistogramSnapshot, q float64) float64 {
	return quantileFromBuckets(h.bounds, s.BucketCounts, s.Max, q)
}

// quantileFromBuckets estimates the q-quantile of a bucketed
// distribution: bounds are the inclusive upper bounds, counts has one
// extra trailing overflow bucket, and max clamps every estimate to the
// largest value actually observed. It works on any bucket vector — the
// histogram's cumulative counts, or a per-window delta of two count
// snapshots (how the time-series sampler derives windowed quantiles).
func quantileFromBuckets(bounds []float64, counts []uint64, max float64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	// No estimate may exceed the largest value actually observed: the
	// overflow bucket has no upper bound, and interpolation inside the
	// containing bucket can overshoot a one-sided distribution.
	clamp := func(v float64) float64 {
		if v > max {
			return max
		}
		return v
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		next := cum + float64(c)
		if next >= rank && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			if i >= len(bounds) {
				// Overflow bucket: the max observed value is the only
				// honest upper estimate.
				return max
			}
			hi := bounds[i]
			frac := (rank - cum) / float64(c)
			return clamp(lo + (hi-lo)*frac)
		}
		cum = next
	}
	return clamp(bounds[len(bounds)-1])
}
