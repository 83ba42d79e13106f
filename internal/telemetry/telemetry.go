// Package telemetry is the repo's dependency-free runtime metrics
// subsystem: a registry of atomic counters, gauges and bounded histograms,
// a Prometheus-text-format renderer, a stdlib-HTTP /metrics + /debug/pprof
// endpoint, and a periodic JSON run manifest so experiment runs
// self-describe their traffic.
//
// Design constraints, in order:
//
//  1. Zero dependencies — stdlib only, like the rest of the repo.
//  2. Hot-path safe — instrumented code (ps.Push, the worker exchange
//     loop, optimizer Prepare) resolves metric handles once at setup and
//     then performs only atomic operations. No update path allocates, so
//     the PR 2 zero-allocation invariants survive instrumentation.
//  3. Always-on — packages register against the Default registry at init
//     or construction time; a process that never starts the HTTP endpoint
//     pays a few atomic adds and nothing else.
//
// Metric identity is (name, label pairs). Handles are get-or-create: two
// callers asking for the same identity share one underlying metric, which
// makes cross-package wiring (ps counts pushes, trainer derives ratios)
// trivial and makes repeated construction in tests benign.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric. The zero value is
// usable; all methods are safe for concurrent use and never allocate.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 metric that can move both ways. The zero value is
// usable; all methods are safe for concurrent use and never allocate.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds v (CAS loop).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Metric type names as emitted in Prometheus TYPE lines.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// child is one labelled instance of a metric family. Exactly one of the
// value fields is set, matching the family type (fn is a gauge read at
// collection time).
type child struct {
	labels  string // rendered `k="v",k2="v2"` (no braces), "" when unlabelled
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
}

// family groups all children sharing one metric name.
type family struct {
	name, help, typ string
	children        map[string]*child
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry, or use Default for the process-wide instance every
// instrumented package feeds.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry (tests use this to assert exact
// values without cross-talk from the process-wide instrumentation).
func NewRegistry() *Registry { return &Registry{fams: map[string]*family{}} }

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that instrumented packages
// (ps, transport, trainer, optim) register against and that the HTTP
// endpoint serves by default.
func Default() *Registry { return defaultRegistry }

// renderLabels turns alternating key, value strings into the canonical
// label suffix `k="v",k2="v2"`. Pairs keep caller order; a metric identity
// is the name plus this rendered string.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list %q (want key, value pairs)", labels))
	}
	var b strings.Builder
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteString(`"`)
	}
	return b.String()
}

// escapeLabel applies Prometheus label-value escaping.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// get returns the child for (name, labels), creating family and child as
// needed. Registering the same name with a different type is a programming
// error and panics, matching the repo's invariant style.
func (r *Registry) get(name, help, typ string, labels []string, mk func() *child) *child {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, children: map[string]*child{}}
		r.fams[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.typ, typ))
	}
	if f.help == "" {
		f.help = help
	}
	ch := f.children[key]
	if ch == nil {
		ch = mk()
		ch.labels = key
		f.children[key] = ch
	}
	return ch
}

// Counter returns (creating if needed) the counter for name and labels
// (alternating key, value strings).
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	ch := r.get(name, help, typeCounter, labels, func() *child { return &child{counter: &Counter{}} })
	return ch.counter
}

// Gauge returns (creating if needed) the gauge for name and labels.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	ch := r.get(name, help, typeGauge, labels, func() *child { return &child{gauge: &Gauge{}} })
	return ch.gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at collection
// time (scrape, manifest snapshot). Re-registering the same identity
// replaces the callback — later runs in one process supersede earlier ones.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	ch := r.get(name, help, typeGauge, labels, func() *child { return &child{} })
	r.mu.Lock()
	ch.fn = fn
	r.mu.Unlock()
}

// Histogram returns (creating if needed) the histogram for name and
// labels. bounds are ascending inclusive upper bucket bounds; an implicit
// +Inf bucket is appended. If the identity already exists its original
// bounds are kept.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	ch := r.get(name, help, typeHistogram, labels, func() *child { return &child{hist: newHistogram(bounds)} })
	return ch.hist
}

// famSnap is a point-in-time copy of one family taken under the registry
// lock: the children slice holds child copies (labels, metric pointers, fn),
// already sorted by label set. Rendering and export walk these copies, never
// the live family maps, because registration is concurrent with collection
// in shipped flows — `dgs worker` serves /metrics before the trainer has
// constructed its optimizers, and Manifest.StartPeriodic exports while
// trainer.Run is still wiring workers. Metric values are still read live
// through the copied pointers (atomics; monitoring tolerates that).
type famSnap struct {
	name, help, typ string
	children        []child
}

// snapshotFams copies every family and its children under the lock so
// rendering and export walk a stable structure. Reading ch.fn here, under
// the same lock GaugeFunc writes it, is what makes callback re-registration
// safe against a concurrent scrape.
func (r *Registry) snapshotFams() []famSnap {
	r.mu.Lock()
	fams := make([]famSnap, 0, len(r.fams))
	for _, f := range r.fams {
		fs := famSnap{
			name:     f.name,
			help:     f.help,
			typ:      f.typ,
			children: make([]child, 0, len(f.children)),
		}
		for _, ch := range f.children {
			fs.children = append(fs.children, *ch)
		}
		sort.Slice(fs.children, func(i, j int) bool { return fs.children[i].labels < fs.children[j].labels })
		fams = append(fams, fs)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// value reads a counter/gauge/func child's current value.
func (ch *child) value() float64 {
	switch {
	case ch.counter != nil:
		return float64(ch.counter.Value())
	case ch.gauge != nil:
		return ch.gauge.Value()
	case ch.fn != nil:
		return ch.fn()
	}
	return 0
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE lines, families sorted by name,
// children by label set, histograms as cumulative _bucket/_sum/_count.
func (r *Registry) WritePrometheus(w io.Writer) {
	for _, f := range r.snapshotFams() {
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for i := range f.children {
			ch := &f.children[i]
			if f.typ == typeHistogram {
				writeHistogram(w, f.name, ch)
				continue
			}
			fmt.Fprintf(w, "%s%s %s\n", f.name, braced(ch.labels), formatFloat(ch.value()))
		}
	}
}

// Render returns the full Prometheus text page.
func (r *Registry) Render() string {
	var b strings.Builder
	r.WritePrometheus(&b)
	return b.String()
}

// writeHistogram emits one labelled histogram in cumulative bucket form.
func writeHistogram(w io.Writer, name string, ch *child) {
	h := ch.hist
	counts, total, sum := h.snapshot()
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, braced(joinLabels(ch.labels, `le="`+formatFloat(b)+`"`)), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, braced(joinLabels(ch.labels, `le="+Inf"`)), total)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, braced(ch.labels), formatFloat(sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, braced(ch.labels), total)
}

// braced wraps a rendered label string in {} or returns "" when empty.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// joinLabels appends one rendered pair to a (possibly empty) label string.
func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

// formatFloat renders a float the shortest way that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Export flattens the registry into a JSON-friendly map for the run
// manifest: counters and gauges become numbers keyed by
// `name{labels}`; histograms become {count, sum, p50, p95, p99} objects.
func (r *Registry) Export() map[string]any {
	out := map[string]any{}
	for _, f := range r.snapshotFams() {
		for i := range f.children {
			ch := &f.children[i]
			key := f.name + braced(ch.labels)
			if f.typ == typeHistogram {
				h := ch.hist
				_, total, sum := h.snapshot()
				out[key] = map[string]any{
					"count": total,
					"sum":   sum,
					"p50":   h.Quantile(0.50),
					"p95":   h.Quantile(0.95),
					"p99":   h.Quantile(0.99),
				}
				continue
			}
			out[key] = ch.value()
		}
	}
	return out
}
