package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a bounded bucketed histogram for non-negative observations
// (durations in seconds, staleness in pushes, byte counts). Buckets are
// fixed at construction — inclusive upper bounds plus an implicit +Inf
// overflow — so Observe is a bucket search plus two atomic operations
// and never allocates. Quantiles (p50/p95/p99) are estimated by linear
// interpolation within the owning bucket, the standard Prometheus
// histogram_quantile scheme.
type Histogram struct {
	bounds  []float64 // ascending inclusive upper bounds
	buckets []atomic.Uint64
	sumBits atomic.Uint64
}

// newHistogram builds a histogram over the given bounds (copied).
func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending at %v", bounds[i]))
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.buckets = make([]atomic.Uint64, len(bounds)+1)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) = overflow
	h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot reads per-bucket counts, the total and the sum. Reads are not
// mutually atomic; for monitoring that slack is acceptable (the total is
// re-derived from the bucket counts so bucket/count output stays
// consistent within one render).
func (h *Histogram) snapshot() (counts []uint64, total uint64, sum float64) {
	counts = make([]uint64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	return counts, total, h.Sum()
}

// Quantile estimates the q-th quantile (q in [0,1]) by locating the bucket
// holding the rank and interpolating linearly between its bounds. Values
// in the +Inf overflow bucket report the largest finite bound. Returns 0
// when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	counts, total, _ := h.snapshot()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := float64(0)
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(h.bounds) {
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		frac := (rank - prev) / float64(c)
		return lo + (hi-lo)*frac
	}
	return h.bounds[len(h.bounds)-1]
}

// ExpBuckets returns count ascending bounds starting at start and growing
// by factor: {start, start·f, start·f², …}.
func ExpBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic("telemetry: ExpBuckets needs start > 0, factor > 1, count >= 1")
	}
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DurationBuckets covers 1 µs to ~67 s in powers of two — wide enough for
// loopback exchanges (microseconds) and chaos-test retries (seconds) in
// one layout.
func DurationBuckets() []float64 { return ExpBuckets(1e-6, 2, 27) }

// StalenessBuckets covers 0 to 16384 pushes: an exact zero bucket (the
// synchronous case) plus powers of two.
func StalenessBuckets() []float64 {
	return append([]float64{0}, ExpBuckets(1, 2, 15)...)
}
