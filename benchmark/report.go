package main

import (
	"fmt"
	"sort"
	"time"

	"dgs/internal/ps"
	"dgs/internal/telemetry"
)

// metric is one reported number, as the contract's JSON carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// namedMetric keeps the order metrics are printed in.
type namedMetric struct {
	name string
	metric
	note string // sample counts and the like, for the human-readable lines
}

// run is one pass of a workload: its episodes, and for a traced pass the
// spans and the program's own counters over the same interval.
type run struct {
	w        *workload
	episodes []*episode
	tcr      *tracer            // nil for the untraced pass
	counters map[string]float64 // telemetry counters, this run's share
}

// Telemetry series the per-layer numbers read from telemetry.Default().
// Counters are cumulative per process, so a run takes differences.
var telemetryCounters = []string{
	"dgs_ps_pushes_total",
	"dgs_ps_up_values_total",
	"dgs_ps_down_values_total",
	"dgs_transport_retries_total",
}

const lockWaitHistogram = "dgs_ps_push_lock_wait_seconds"

func readTelemetry() map[string]float64 {
	exp := telemetry.Default().Export()
	out := map[string]float64{}
	for _, name := range telemetryCounters {
		if v, ok := exp[name].(float64); ok {
			out[name] = v
		}
	}
	if h, ok := exp[lockWaitHistogram].(map[string]any); ok {
		out[lockWaitHistogram+".sum"], _ = h["sum"].(float64)
	}
	return out
}

// runWorkload runs episodes of w until about seconds of measured time have
// accumulated. Each episode draws its inputs from its own seed, derived
// from the run's, so a run's medians span several datasets and schedules.
func runWorkload(w *workload, seed uint64, seconds int, traced bool) (*run, error) {
	r := &run{w: w}
	if traced {
		r.tcr = newTracer()
	}
	before := readTelemetry()
	var measured time.Duration
	for e := uint64(0); ; e++ {
		ep, err := w.episode(seed*1_000_003+e, r.tcr)
		if err != nil {
			return nil, fmt.Errorf("%s episode %d: %w", w.name, e, err)
		}
		r.episodes = append(r.episodes, ep)
		measured += ep.measured
		// Stop at the episode boundary nearest to the requested time.
		if measured+ep.measured/2 >= time.Duration(seconds)*time.Second {
			break
		}
	}
	r.counters = readTelemetry()
	for name, v := range before {
		r.counters[name] -= v
	}
	return r, nil
}

// countServer adds what the server and the workers' logs counted in one
// episode to its additive counts.
func (e *episode) countServer(st ps.Stats, logs []*exchangeLog) {
	e.counts["ps.pushes"] = float64(st.Pushes)
	e.counts["ps.staleness_sum"] = float64(st.StalenessSum)
	e.counts["ps.blocks_scanned"] = float64(st.DiffBlocksScanned)
	e.counts["ps.blocks_skipped"] = float64(st.DiffBlocksSkipped)
	e.counts["ps.secondary_candidates"] = float64(st.SecondaryCandidates)
	for _, l := range logs {
		e.counts["steps"] += float64(len(l.stepEnd))
		e.counts["up_bytes"] += float64(l.up)
		e.counts["down_bytes"] += float64(l.down)
	}
}

func (r *run) count(name string) float64 {
	var sum float64
	for _, e := range r.episodes {
		sum += e.counts[name]
	}
	return sum
}

// attempted totals the run's operations (exchanges and output checks) and
// the ones that failed: exchanges that erred, were retried, replayed or
// refused admission, and output checks that did not hold.
func (r *run) attempted() (attempted, failed int, problems []string) {
	failed = int(r.counters["dgs_transport_retries_total"])
	for _, e := range r.episodes {
		attempted += e.attempted
		failed += e.failed
		problems = append(problems, e.problems...)
	}
	return attempted, failed, problems
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, and which percentile that is.
func tail(xs []float64) (value, pct float64) {
	if len(xs) <= 10 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pct = 99
	if len(s) < 1100 {
		pct = 100 * float64(len(s)-11) / float64(len(s))
	}
	return s[int(float64(len(s))*pct/100)], pct
}

// endToEnd derives the run's end-to-end metrics: medians over episodes
// for the per-episode numbers, the median of all episodes' samples pooled
// for the latencies. The first five are the contract's end_to_end list.
func (r *run) endToEnd() []namedMetric {
	var rate, target, bytes, setup, stepsTo []float64
	var lat, lag, late []time.Duration
	for _, e := range r.episodes {
		rate = append(rate, e.stepsPerS)
		setup = append(setup, e.setup.Seconds())
		lat = append(lat, e.latency...)
		lag = append(lag, e.lag...)
		late = append(late, e.late...)
		if e.stepsToTarget > 0 {
			target = append(target, e.timeToTarget)
			bytes = append(bytes, e.bytesToTarget)
			stepsTo = append(stepsTo, float64(e.stepsToTarget))
		}
	}
	latMs := millis(lat)
	p99, pct := tail(latMs)
	out := []namedMetric{
		{"steps_per_s", metric{median(rate), "1/s"}, fmt.Sprintf("median of %d episodes", len(rate))},
		{"push_p50_ms", metric{median(latMs), "ms"}, fmt.Sprintf("%d exchanges", len(latMs))},
		{"time_to_target_s", metric{median(target), "s"}, fmt.Sprintf("reached in %d of %d episodes", len(target), len(r.episodes))},
		{"wire_bytes_to_target", metric{median(bytes), "bytes"}, ""},
		{"setup_s", metric{median(setup), "s"}, fmt.Sprintf("median of %d set-ups", len(setup))},
		{"push_tail_ms", metric{p99, "ms"}, fmt.Sprintf("p%.4g, not gated", pct)},
		{"steps_to_target", metric{median(stepsTo), "count"}, "not gated"},
	}
	if len(lag) > 0 {
		out = append(out,
			namedMetric{"replica_lag_ms", metric{median(millis(lag)), "ms"}, fmt.Sprintf("%d ticks", len(lag))},
			namedMetric{"reader_late_ms", metric{median(millis(late)), "ms"}, "how late the 20 Hz ticks ran"})
	}
	return out
}

// contractEndToEnd is the number of leading endToEnd metrics that
// BENCHMARK.json lists; every workload reports all of them.
const contractEndToEnd = 5

// perLayer derives the traced pass's per-layer metrics. Times are mean
// milliseconds per worker step (per push in the fleet workloads); a layer
// a workload does not use reads 0.
func (r *run) perLayer() []namedMetric {
	t := r.tcr
	steps := r.count("steps")
	perStep := func(name, parent string) float64 {
		if steps == 0 {
			return 0
		}
		return float64(t.total(name, parent).ns) / 1e6 / steps
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	// An exchange is a child of its step in the sync loop and spans steps
	// in the pipelined one.
	exchange := perStep(spanExchange, spanStep) + perStep(spanExchange, "")
	// Handler spans, per exchange that caused one: directly, or in
	// embed_agg through the aggregator (one upstream push per window).
	handle := t.total(spanHandle, spanExchange)
	upstream := t.total(spanHandle, spanAgg)
	aggHandle := t.total(spanAgg, spanExchange)
	push := t.total(spanPush, spanHandle)
	pushes := r.counters["dgs_ps_pushes_total"]
	scanned, skipped := r.count("ps.blocks_scanned"), r.count("ps.blocks_skipped")
	var rate []float64
	var lag, late []time.Duration
	for _, e := range r.episodes {
		rate = append(rate, e.stepsPerS)
		lag = append(lag, e.lag...)
		late = append(late, e.late...)
	}
	ms, count, nnz, byt := "ms", "count", "nnz", "bytes"
	m := func(name string, v float64, unit string) namedMetric { return namedMetric{name, metric{v, unit}, ""} }
	return []namedMetric{
		m("trace_coverage", t.coverage(), "ratio"),
		m("traced_steps_per_s", median(rate), "1/s"),
		m("data.next_ms", perStep(spanData, spanStep), ms),
		m("nn.fwd_bwd_ms", perStep(spanFwdBwd, spanStep), ms),
		m("optim.prepare_ms", perStep(spanPrepare, spanStep), ms),
		m("sparse.encode_up_ms", perStep(spanEncode, spanStep), ms),
		m("sparse.decode_down_ms", perStep(spanDecode, spanStep), ms),
		m("sparse.scatter_ms", perStep(spanScatter, spanStep), ms),
		m("sparse.up_bytes", ratio(r.count("up_bytes"), steps), byt),
		m("sparse.down_bytes", ratio(r.count("down_bytes"), steps), byt),
		m("sparse.up_nnz", ratio(r.counters["dgs_ps_up_values_total"], pushes), nnz),
		m("sparse.down_nnz", ratio(r.counters["dgs_ps_down_values_total"], pushes), nnz),
		m("transport.exchange_ms", exchange, ms),
		// Self time: the exchange minus its server-side child, i.e. wire,
		// envelope, syscalls and queueing.
		m("transport.exchange_self_ms", exchange-perStep(spanHandle, spanExchange)-perStep(spanAgg, spanExchange), ms),
		m("transport.await_ms", perStep(spanAwait, spanStep), ms),
		m("trainer.handle_ms", handle.perCall()+upstream.perCall(), ms),
		m("trainer.handle_self_ms", handle.perCall()+upstream.perCall()-push.perCall(), ms),
		m("ps.push_ms", push.perCall(), ms),
		m("ps.staleness", ratio(r.count("ps.staleness_sum"), r.count("ps.pushes")), count),
		m("ps.diff_skip_ratio", ratio(skipped, scanned+skipped), "ratio"),
		m("ps.secondary_candidates", ratio(r.count("ps.secondary_candidates"), pushes), count),
		m("ps.lock_wait_ms", ratio(r.counters[lockWaitHistogram+".sum"]*1e3, pushes), ms),
		m("agg.handle_ms", aggHandle.perCall(), ms),
		// Self time of a worker's pass through the aggregator: its span
		// minus the one upstream push its window waited for.
		m("agg.handle_self_ms", aggHandle.perCall()-upstream.perCall(), ms),
		m("agg.windows", r.count("agg.windows"), count),
		m("agg.parts_per_window", ratio(r.count("agg.parts"), r.count("agg.windows")), count),
		m("agg.shared_frame_ratio", ratio(r.count("agg.shared_frames"), r.count("agg.shared_frames")+r.count("agg.encoded_frames")), "ratio"),
		m("replica.polls", r.count("replica.polls"), count),
		m("replica.applied_coords", r.count("replica.applied_coords"), count),
		m("replica.rebases", r.count("replica.rebases"), count),
		m("replica.snapshot_ms", t.total(spanSnapshot, "").perCall(), ms),
		m("replica_lag_ms", median(millis(lag)), ms),
		m("reader_late_ms", median(millis(late)), ms),
	}
}
