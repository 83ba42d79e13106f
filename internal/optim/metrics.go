package optim

import (
	"math"
	"time"

	"dgs/internal/telemetry"
)

// optimMetrics instruments one sparsifying update rule. Handles are
// resolved once at construction; per-step recording is a few atomic
// operations.
type optimMetrics struct {
	prepareSeconds *telemetry.Histogram
	topkNanos      *telemetry.Counter
	topkMisses     *telemetry.Counter
	residualMass   *telemetry.Gauge
}

func newOptimMetrics(rule string) *optimMetrics {
	reg := telemetry.Default()
	m := &optimMetrics{
		prepareSeconds: reg.Histogram("dgs_optim_prepare_seconds",
			"Latency of one Prepare call (accumulate, select, assemble).",
			telemetry.DurationBuckets(), "rule", rule),
		topkNanos: reg.Counter("dgs_optim_topk_ns_total",
			"Cumulative nanoseconds in the layer walk (accumulate, select and emit): per layer, the accumulate-and-count pass, then either the warm sweep, candidate resolve and O(k) compaction or, on a miss, the histogram Cut and emit sweep.",
			"rule", rule),
		topkMisses: reg.Counter("dgs_optim_topk_misses_total",
			"Layer-steps whose warm-start floor did not bracket the Top-k boundary (first step, too few or too many candidates), so the layer took the histogram path; layers no longer than the candidate bound are not counted.",
			"rule", rule),
		residualMass: reg.Gauge("dgs_optim_residual_mass",
			"L1 mass of the unsent residual/velocity after the last Prepare, as s·(Σ|x| − Σ|sent|) per layer; NaN when a layer holds ±Inf.",
			"rule", rule),
	}
	return m
}

// observe records one Prepare call: its latency, the time in the layer
// walk, the unsent mass and the layers that missed.
func (m *optimMetrics) observe(elapsed, topk time.Duration, mass float64, misses int) {
	m.prepareSeconds.Observe(elapsed.Seconds())
	m.topkNanos.Add(uint64(topk.Nanoseconds()))
	if misses > 0 {
		m.topkMisses.Add(uint64(misses))
	}
	m.residualMass.Set(mass)
}

// absf is |v| widened to float64 for mass accumulation. math.Abs compiles to
// a sign-bit mask: a compare-and-negate here mispredicts on every other
// coordinate of a zero-mean layer.
func absf(v float32) float64 { return math.Abs(float64(v)) }
