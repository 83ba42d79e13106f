package ps

import (
	"strconv"
	"sync"
	"time"

	"dgs/internal/telemetry"
)

// metrics holds the server's telemetry handles, resolved once at
// construction so the Push hot path is pure atomic updates — Push is a
// tracked zero-allocation benchmark and instrumentation must not regress
// it. A nil *metrics (Config.Quiet, used for the shards inside a
// ShardedServer) disables recording entirely.
type metrics struct {
	pushes        *telemetry.Counter
	resyncs       *telemetry.Counter
	upValues      *telemetry.Counter
	downValues    *telemetry.Counter
	density       *telemetry.Gauge
	lockWait      *telemetry.Histogram
	applyBatches  *telemetry.Counter
	applyUpdates  *telemetry.Counter
	blocksScanned *telemetry.Counter
	blocksSkipped *telemetry.Counter
	secCand       *telemetry.Counter
	staleness     []*telemetry.Histogram // per worker
	modelSize     float64
}

// pushRate derives dgs_ps_pushes_per_sec: each scrape reports the push rate
// since the previous scrape (first scrape reports 0). The state lives behind
// its own mutex because GaugeFunc callbacks run on the collector goroutine,
// never on the push path.
type pushRate struct {
	mu    sync.Mutex
	src   func() uint64
	last  uint64
	at    time.Time
	valid bool
}

func (p *pushRate) rate() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	cur := p.src()
	var r float64
	if p.valid {
		if dt := now.Sub(p.at).Seconds(); dt > 0 {
			r = float64(cur-p.last) / dt
		}
	}
	p.last, p.at, p.valid = cur, now, true
	return r
}

// newMetrics registers the ps metric family against the default registry
// for a server with the given geometry. Metric identity is shared
// get-or-create, so several servers in one process (tests, sims) feed the
// same counters.
func newMetrics(layerSizes []int, workers int) *metrics {
	reg := telemetry.Default()
	m := &metrics{
		pushes: reg.Counter("dgs_ps_pushes_total",
			"Sparse updates applied to the server (the logical clock)."),
		resyncs: reg.Counter("dgs_ps_resyncs_total",
			"Worker state resets from crash/rejoin recoveries."),
		upValues: reg.Counter("dgs_ps_up_values_total",
			"Nonzero values received in upward (worker to server) updates."),
		downValues: reg.Counter("dgs_ps_down_values_total",
			"Nonzero values shipped in downward (server to worker) differences."),
		density: reg.Gauge("dgs_ps_down_density",
			"Density of the last downward difference: values sent / model size."),
		lockWait: reg.Histogram("dgs_ps_push_lock_wait_seconds",
			"Time from a push entering the apply queue to its update being applied (write-lock wait plus its batch's applies).",
			telemetry.DurationBuckets()),
		applyBatches: reg.Counter("dgs_ps_apply_batches_total",
			"Model write-lock holds taken by the apply queue."),
		applyUpdates: reg.Counter("dgs_ps_apply_batch_updates_total",
			"Updates applied under those holds; divided by the batches, the mean combined batch size."),
		blocksScanned: reg.Counter("dgs_ps_diff_blocks_scanned_total",
			"Dirty-tracking blocks visited while computing downward differences."),
		blocksSkipped: reg.Counter("dgs_ps_diff_blocks_skipped_total",
			"Dirty-tracking blocks proved untouched and skipped by the diff."),
		secCand: reg.Counter("dgs_ps_secondary_candidates_total",
			"Nonzero coordinates of the downward difference the secondary Top-k selected from."),
		staleness: make([]*telemetry.Histogram, workers),
	}
	rate := &pushRate{src: m.pushes.Value}
	reg.GaugeFunc("dgs_ps_pushes_per_sec",
		"Push throughput since the previous metrics collection.", rate.rate)
	for k := range m.staleness {
		m.staleness[k] = reg.Histogram("dgs_ps_staleness",
			"Staleness observed per push: server updates since the worker's last exchange.",
			telemetry.StalenessBuckets(), "worker", strconv.Itoa(k))
	}
	for _, n := range layerSizes {
		m.modelSize += float64(n)
	}
	return m
}

// observePush records one completed exchange. All paths are alloc-free.
func (m *metrics) observePush(worker int, stale, upNNZ, downNNZ uint64, lockWait time.Duration, scanned, skipped, secCand uint64) {
	if m == nil {
		return
	}
	m.pushes.Inc()
	m.staleness[worker].Observe(float64(stale))
	m.upValues.Add(upNNZ)
	m.downValues.Add(downNNZ)
	m.lockWait.Observe(lockWait.Seconds())
	m.blocksScanned.Add(scanned)
	m.blocksSkipped.Add(skipped)
	m.secCand.Add(secCand)
	if m.modelSize > 0 {
		m.density.Set(float64(downNNZ) / m.modelSize)
	}
}

// observeBatch records one write-lock hold of the apply queue and the number
// of updates it applied.
func (m *metrics) observeBatch(updates uint64) {
	if m == nil {
		return
	}
	m.applyBatches.Inc()
	m.applyUpdates.Add(updates)
}

// observeResync records one worker state reset.
func (m *metrics) observeResync() {
	if m == nil {
		return
	}
	m.resyncs.Inc()
}

// registerShardMetrics exposes a ShardedServer's per-shard counters as
// labelled children in /metrics. The shards themselves run Quiet (the
// wrapper counts each logical push exactly once), so these are GaugeFunc
// views over the shard atomics rather than a second set of incremented
// counters — no double counting, no hot-path cost, and a distinct metric
// family name so the shard breakdown never aliases the logical totals.
func registerShardMetrics(shards []*Server) {
	reg := telemetry.Default()
	for i, shard := range shards {
		sh := shard // capture per iteration
		label := strconv.Itoa(i)
		reg.GaugeFunc("dgs_ps_shard_pushes_total",
			"Shard-local pushes applied (one logical push touches every shard).",
			func() float64 { return float64(sh.pushes.Load()) }, "shard", label)
		reg.GaugeFunc("dgs_ps_shard_apply_batches_total",
			"Write-lock holds this shard's apply queue took (pushes / batches is its mean combined batch size).",
			func() float64 { return float64(sh.applyBatches.Load()) }, "shard", label)
		reg.GaugeFunc("dgs_ps_shard_diff_blocks_scanned_total",
			"Dirty-tracking blocks this shard's downward diffs visited.",
			func() float64 { return float64(sh.blocksScanned.Load()) }, "shard", label)
		reg.GaugeFunc("dgs_ps_shard_diff_blocks_skipped_total",
			"Dirty-tracking blocks this shard's downward diffs proved untouched.",
			func() float64 { return float64(sh.blocksSkipped.Load()) }, "shard", label)
		reg.GaugeFunc("dgs_ps_shard_secondary_candidates_total",
			"Nonzero coordinates this shard's secondary Top-k selected from.",
			func() float64 { return float64(sh.secCand.Load()) }, "shard", label)
		rate := &pushRate{src: sh.pushes.Load}
		reg.GaugeFunc("dgs_ps_shard_pushes_per_sec",
			"Shard-local push throughput since the previous metrics collection.",
			rate.rate, "shard", label)
	}
}
