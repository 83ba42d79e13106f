package telemetry

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentUpdates hammers one counter, one gauge and one histogram
// from many goroutines and checks the totals. Run under -race (make check
// does) this is the registry's thread-safety proof.
func TestConcurrentUpdates(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_ops_total", "ops")
	g := reg.Gauge("test_level", "level")
	h := reg.Histogram("test_lat", "lat", []float64{1, 2, 4, 8})

	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Same identity resolved concurrently must be the same metric.
			cc := reg.Counter("test_ops_total", "ops")
			hh := reg.Histogram("test_lat", "lat", []float64{1, 2, 4, 8})
			for i := 0; i < perWorker; i++ {
				cc.Inc()
				g.Add(1)
				hh.Observe(float64(i % 10))
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != workers*perWorker {
		t.Fatalf("gauge = %v, want %d", got, workers*perWorker)
	}
	if _, got, _ := h.snapshot(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	// Σ (i%10) over perWorker values of i, times workers.
	wantSum := 0.0
	for i := 0; i < perWorker; i++ {
		wantSum += float64(i % 10)
	}
	wantSum *= workers
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6 {
		t.Fatalf("histogram sum = %v, want %v", got, wantSum)
	}
}

// TestScrapeDuringRegistration renders and exports the registry while
// another goroutine is still creating metrics and re-registering gauge
// callbacks. That interleaving happens in shipped flows — `dgs worker` serves
// /metrics before the trainer constructs its optimizers, and
// Manifest.StartPeriodic exports while trainer.Run is still wiring workers —
// so under -race this is the proof that collection never walks live registry
// maps or reads GaugeFunc callbacks unsynchronised.
//
// Each round pairs one registrar (fresh child creation plus callback
// replacement) with one scraper, joined by a barrier, so registration
// overlaps collection in every round instead of racing it once to
// completion at test start.
func TestScrapeDuringRegistration(t *testing.T) {
	reg := NewRegistry()
	const rounds = 32
	const perRound = 64
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			rs := strconv.Itoa(r)
			for i := 0; i < perRound; i++ {
				reg.Counter("race_ops_total", "ops", "round", rs, "i", strconv.Itoa(i)).Inc()
				reg.Histogram("race_lat", "lat", []float64{1, 2, 4}, "round", rs).Observe(float64(i % 5))
				v := float64(i)
				reg.GaugeFunc("race_ratio", "ratio", func() float64 { return v })
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				reg.Render()
				reg.Export()
			}
		}()
		wg.Wait()
	}
	// Post-quiescence sanity: every registration landed.
	out := reg.Export()
	total := 0.0
	for key, v := range out {
		if strings.HasPrefix(key, "race_ops_total{") {
			total += v.(float64)
		}
	}
	if want := float64(rounds * perRound); total != want {
		t.Fatalf("summed race_ops_total = %v, want %v", total, want)
	}
}

// TestPrometheusFormat is the golden test for the text exposition format:
// deterministic ordering, label rendering, cumulative histogram buckets.
func TestPrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b_pushes_total", "Pushes applied.", "worker", "1").Add(7)
	reg.Counter("b_pushes_total", "Pushes applied.", "worker", "0").Add(3)
	reg.Gauge("a_density", "Downward density.").Set(0.25)
	reg.GaugeFunc("c_ratio", "Compression ratio.", func() float64 { return 80 })
	h := reg.Histogram("d_staleness", "Observed staleness.", []float64{0, 1, 2}, "worker", "0")
	h.Observe(0)
	h.Observe(1)
	h.Observe(1)
	h.Observe(5)

	want := strings.Join([]string{
		"# HELP a_density Downward density.",
		"# TYPE a_density gauge",
		"a_density 0.25",
		"# HELP b_pushes_total Pushes applied.",
		"# TYPE b_pushes_total counter",
		`b_pushes_total{worker="0"} 3`,
		`b_pushes_total{worker="1"} 7`,
		"# HELP c_ratio Compression ratio.",
		"# TYPE c_ratio gauge",
		"c_ratio 80",
		"# HELP d_staleness Observed staleness.",
		"# TYPE d_staleness histogram",
		`d_staleness_bucket{worker="0",le="0"} 1`,
		`d_staleness_bucket{worker="0",le="1"} 3`,
		`d_staleness_bucket{worker="0",le="2"} 3`,
		`d_staleness_bucket{worker="0",le="+Inf"} 4`,
		`d_staleness_sum{worker="0"} 7`,
		`d_staleness_count{worker="0"} 4`,
		"",
	}, "\n")
	if got := reg.Render(); got != want {
		t.Fatalf("render mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("q", "q", []float64{1, 2, 4, 8, 16})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram p50 = %v, want 0", got)
	}
	// 100 observations of 1.5 (bucket (1,2]), 100 of 3 (bucket (2,4]).
	for i := 0; i < 100; i++ {
		h.Observe(1.5)
		h.Observe(3)
	}
	p50 := h.Quantile(0.5)
	if p50 < 1 || p50 > 2 {
		t.Fatalf("p50 = %v, want within (1,2]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 2 || p99 > 4 {
		t.Fatalf("p99 = %v, want within (2,4]", p99)
	}
	// Overflow observations report the top finite bound.
	h.Observe(1e9)
	if got := h.Quantile(1); got != 16 {
		t.Fatalf("p100 with overflow = %v, want 16", got)
	}
}

func TestLabelRenderingAndIdentity(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "x", "kind", "drop")
	b := reg.Counter("x_total", "x", "kind", "drop")
	if a != b {
		t.Fatal("same (name, labels) must return the same counter")
	}
	c := reg.Counter("x_total", "x", "kind", "dup")
	if a == c {
		t.Fatal("different labels must return different counters")
	}
	a.Inc()
	c.Add(2)
	out := reg.Render()
	for _, line := range []string{`x_total{kind="drop"} 1`, `x_total{kind="dup"} 2`} {
		if !strings.Contains(out, line) {
			t.Fatalf("output missing %q:\n%s", line, out)
		}
	}
	// Label values with quotes/backslashes must be escaped.
	reg.Counter("esc_total", "e", "v", `a"b\c`).Inc()
	if !strings.Contains(reg.Render(), `esc_total{v="a\"b\\c"} 1`) {
		t.Fatalf("escaping broken:\n%s", reg.Render())
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m", "m")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	reg.Gauge("m", "m")
}

func TestExport(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ops_total", "ops", "worker", "0").Add(5)
	h := reg.Histogram("lat", "lat", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	out := reg.Export()
	if got := out[`ops_total{worker="0"}`]; got != float64(5) {
		t.Fatalf("exported counter = %v, want 5", got)
	}
	hm, ok := out["lat"].(map[string]any)
	if !ok {
		t.Fatalf("exported histogram missing: %v", out)
	}
	if hm["count"] != uint64(2) || hm["sum"] != 2.0 {
		t.Fatalf("exported histogram = %v", hm)
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if exp[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", exp, want)
		}
	}
	lin := LinearBuckets(0, 0.5, 3)
	want = []float64{0, 0.5, 1}
	for i := range want {
		if lin[i] != want[i] {
			t.Fatalf("LinearBuckets = %v, want %v", lin, want)
		}
	}
	if b := StalenessBuckets(); b[0] != 0 || b[1] != 1 {
		t.Fatalf("StalenessBuckets = %v", b)
	}
}

// Render returns the full Prometheus text page.
func (r *Registry) Render() string {
	var b strings.Builder
	r.WritePrometheus(&b)
	return b.String()
}

// LinearBuckets returns count ascending bounds {start, start+w, …}.
func LinearBuckets(start, width float64, count int) []float64 {
	if width <= 0 || count < 1 {
		panic("telemetry: LinearBuckets needs width > 0, count >= 1")
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}
