// Command benchmark is the repository's one end-to-end benchmark: it builds
// each topology in this process over real loopback TCP from the layers'
// public constructors, runs the workloads in workloads.go, checks their
// outputs and prints every metric by name with its unit. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// Limits the traced pass must meet for its per-layer numbers to describe
// the untraced run: top-level spans account for at least this share of step
// wall time, and tracing costs at most this share of throughput.
const (
	minTraceCoverage = 0.95
	maxTraceOverhead = 0.10
)

func main() {
	name := flag.String("workload", "", "run one workload and end with the contract's JSON line (default: all five)")
	seed := flag.Uint64("seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", 20, "measured time per workload and pass")
	trace := flag.String("trace", "0", "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics; both: the two in turn, plus trace_overhead")
	aa := flag.Bool("aa", false, "run the set twice on this binary and compare each end-to-end metric with its bound")
	flag.Parse()

	set := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		set = []*workload{w}
	}
	fmt.Printf("%s GOMAXPROCS=%d NumCPU=%d seed=%d seconds=%d\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), *seed, *seconds)

	if *aa {
		if err := runAA(set, *seed, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	ok := true
	var last result
	var listed []namedMetric // the metrics BENCHMARK.json lists for the last pass
	for _, w := range set {
		fmt.Printf("%-16s %s\n", w.name, w.why)
		var e2e []namedMetric
		if *trace != "1" {
			untraced, err := runWorkload(w, *seed, *seconds, false)
			if err != nil {
				fatal(err)
			}
			e2e = untraced.endToEnd()
			last, listed = report(untraced, e2e), e2e[:contractEndToEnd]
		}
		if *trace != "0" {
			traced, err := runWorkload(w, *seed, *seconds, true)
			if err != nil {
				fatal(err)
			}
			layers := traced.perLayer()
			listed = layers
			if e2e != nil {
				overhead := 1 - layers[1].Value/e2e[0].Value
				layers = append(layers, namedMetric{"trace_overhead", metric{overhead, "ratio"}, "throughput lost to tracing"})
				ok = ok && overhead <= maxTraceOverhead
			}
			last = report(traced, layers)
			ok = ok && layers[0].Value >= minTraceCoverage
			path := filepath.Join("out", "trace-"+w.name+".json")
			if err := traced.tcr.write(path); err != nil {
				fatal(err)
			}
			fmt.Printf("%-16s spans written to %s\n", w.name, path)
		}
		ok = ok && last.Correct
	}
	if *name != "" {
		// The contract's result line carries the listed metrics only.
		last.Metrics = map[string]metric{}
		for _, m := range listed {
			last.Metrics[m.name] = m.metric
		}
		line, err := json.Marshal(last)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: an output check, trace_coverage or trace_overhead failed")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// result is the contract's last-line JSON object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints one pass's metrics, one per line, and returns them in the
// contract's shape.
func report(r *run, metrics []namedMetric) result {
	res := result{Metrics: map[string]metric{}}
	var problems []string
	res.Attempted, res.Failed, problems = r.attempted()
	res.Correct = len(problems) == 0
	for _, m := range metrics {
		fmt.Printf("%-16s %-28s %14.6g %-6s %s\n", r.w.name, m.name, m.Value, m.Unit, m.note)
		res.Metrics[m.name] = m.metric
	}
	fmt.Printf("%-16s %-28s %14d %-6s of %d attempted_ops\n", r.w.name, "failed_ops", res.Failed, "count", res.Attempted)
	for _, p := range problems {
		fmt.Printf("%-16s FAILED CHECK: %s\n", r.w.name, p)
	}
	return res
}

// contractFile is the part of BENCHMARK.json -aa needs.
type contractFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// replicaLagBound gates replica_lag_ms in -aa. The contract wants every
// listed end-to-end metric on every workload, and only embed_push_read has
// a replica, so this one bound lives here instead of in BENCHMARK.json.
const replicaLagBound = 0.25

// runAA runs the set twice on this binary, A then B, and fails when any
// end-to-end metric's second value is worse than its first by more than
// the metric's bound.
func runAA(set []*workload, seed uint64, seconds int) error {
	contractPath := filepath.Join("..", "BENCHMARK.json") // the binary runs from benchmark/
	raw, err := os.ReadFile(contractPath)
	if err != nil {
		return err
	}
	var c contractFile
	if err := json.Unmarshal(raw, &c); err != nil {
		return fmt.Errorf("%s: %w", contractPath, err)
	}
	gated := []string{"replica_lag_ms"}
	bound := map[string]float64{"replica_lag_ms": replicaLagBound}
	higher := map[string]bool{}
	for _, m := range c.EndToEnd {
		gated = append(gated, m.Name)
		bound[m.Name] = m.Bound
		higher[m.Name] = m.Better == "higher"
	}
	var sides [2][]result
	for side := range sides {
		for _, w := range set {
			r, err := runWorkload(w, seed, seconds, false)
			if err != nil {
				return err
			}
			sides[side] = append(sides[side], report(r, r.endToEnd()))
		}
	}
	breached := 0
	for i, w := range set {
		a, b := sides[0][i], sides[1][i]
		if !a.Correct || !b.Correct {
			breached++
		}
		for _, name := range gated {
			va, vb := a.Metrics[name].Value, b.Metrics[name].Value
			if va == 0 {
				continue // not reported on this workload
			}
			diff := (vb - va) / va
			worse := diff
			if higher[name] {
				worse = -diff
			}
			verdict := "ok"
			if worse > bound[name] {
				verdict = "BREACHED"
				breached++
			}
			fmt.Printf("aa %-16s %-22s A %12.6g  B %12.6g  diff %+7.2f%%  bound %4.0f%%  %s\n",
				w.name, name, va, vb, 100*diff, 100*bound[name], verdict)
		}
	}
	if breached > 0 {
		return fmt.Errorf("-aa: %d breaches", breached)
	}
	return nil
}
