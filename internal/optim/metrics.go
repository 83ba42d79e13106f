package optim

import (
	"math"
	"time"

	"dgs/internal/telemetry"
)

// optimMetrics instruments one sparsifying update rule. Handles are
// resolved once at construction; per-step recording is a few atomic
// operations. The per-layer accumulators live in topkScratch so the
// forEachLayer fan-out writes without contention (each goroutine touches
// only its own layer index) and the totals are summed serially afterwards.
type optimMetrics struct {
	prepareSeconds *telemetry.Histogram
	topkNanos      *telemetry.Counter
	residualMass   *telemetry.Gauge
}

func newOptimMetrics(rule string) *optimMetrics {
	reg := telemetry.Default()
	m := &optimMetrics{
		prepareSeconds: reg.Histogram("dgs_optim_prepare_seconds",
			"Latency of one Prepare call (accumulate, select, assemble).",
			telemetry.DurationBuckets(), "rule", rule),
		topkNanos: reg.Counter("dgs_optim_topk_ns_total",
			"Cumulative per-layer nanoseconds in the fused selection passes (accumulate+histogram, resolve, emit+aftermath).",
			"rule", rule),
		residualMass: reg.Gauge("dgs_optim_residual_mass",
			"L1 mass of the unsent residual/velocity after the last Prepare.",
			"rule", rule),
	}
	return m
}

// observe folds the per-layer accumulators into the shared metrics after
// one Prepare call.
func (m *optimMetrics) observe(ts *topkScratch, elapsed time.Duration) {
	var topk int64
	var mass float64
	for i := range ts.topkNs {
		topk += ts.topkNs[i]
		mass += ts.mass[i]
	}
	m.prepareSeconds.Observe(elapsed.Seconds())
	if topk > 0 {
		m.topkNanos.Add(uint64(topk))
	}
	m.residualMass.Set(mass)
}

// absf is |v| widened to float64 for mass accumulation. math.Abs compiles to
// a sign-bit mask: a compare-and-negate here mispredicts on every other
// coordinate of a zero-mean layer.
func absf(v float32) float64 { return math.Abs(float64(v)) }
