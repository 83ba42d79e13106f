// Command dgs runs every process of a DGS deployment from one binary. Each
// role is a subcommand with its own flags:
//
//	dgs server   standalone parameter server over TCP
//	dgs worker   one training worker against a server or aggregator
//	dgs agg      one aggregator of the hierarchical tier (DESIGN.md §15)
//	dgs replica  one diff-fed read replica (DESIGN.md §16)
//	dgs train    one in-process training run with curves and statistics
//	dgs exp      the paper's tables and figures
//	dgs plot     a training-curve CSV as an SVG chart
//
// Example (three terminals):
//
//	dgs server -addr 127.0.0.1:7000 -workers 2
//	dgs worker -addr 127.0.0.1:7000 -id 0 -workers 2
//	dgs worker -addr 127.0.0.1:7000 -id 1 -workers 2
//
// `dgs <subcommand> -help` lists one subcommand's flags. Configuration that
// several subcommands take is registered by one flag group each (geometry,
// service, dial policy, admission, training, telemetry), so a flag means
// the same thing and has the same default wherever it appears. Output and
// error lines keep their per-role tags (dgs-server:, dgs-worker N:,
// dgs-agg:, dgs-replica:, dgs-train:, dgs-bench:, dgs-plot:), so log
// scrapers still tell the roles apart.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dgs"
	"dgs/internal/nn"
	"dgs/internal/telemetry"
	"dgs/internal/tensor"
	"dgs/internal/trainer"
)

// A command registers its flags on fs and returns the function that runs
// it once fs has parsed the arguments.
type command struct {
	tag   string // prefix of the subcommand's diagnostics
	setup func(fs *flag.FlagSet) (run func())
}

var commands = map[string]command{
	"server":  {"dgs-server", serverCmd},
	"worker":  {"dgs-worker", workerCmd},
	"train":   {"dgs-train", trainCmd},
	"agg":     {"dgs-agg", aggCmd},
	"replica": {"dgs-replica", replicaCmd},
	"exp":     {"dgs-bench", expCmd},
	"plot":    {"dgs-plot", plotCmd},
}

// tag names the running subcommand in the diagnostics fatalIf and the
// shared groups print.
var tag string

func main() {
	if len(os.Args) < 2 {
		os.Args = append(os.Args, "")
	}
	c, ok := commands[os.Args[1]]
	if !ok {
		fmt.Fprintln(os.Stderr, "usage: dgs <server|worker|agg|replica|train|exp|plot> [flags]")
		os.Exit(2)
	}
	tag = c.tag
	fs := flag.NewFlagSet("dgs "+os.Args[1], flag.ExitOnError)
	run := c.setup(fs)
	fs.Parse(os.Args[2:])
	run()
}

// fatalIf exits with status 1 on err, tagged with the subcommand and, when
// what is not empty, the step that failed.
func fatalIf(err error, what string) {
	if err == nil {
		return
	}
	if what != "" {
		err = fmt.Errorf("%s: %w", what, err)
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", tag, err)
	os.Exit(1)
}

// must returns v, or exits like fatalIf when err is not nil.
func must[T any](v T, err error) T {
	fatalIf(err, "")
	return v
}

// pick resolves a case-insensitive flag value in choices; the error names
// the kind of value and lists the canonical names.
func pick[T any](kind, s, canonical string, choices map[string]T) (T, error) {
	v, ok := choices[strings.ToLower(s)]
	if !ok {
		return v, fmt.Errorf("unknown %s %q (%s)", kind, s, canonical)
	}
	return v, nil
}

// geometry is the ResNetS shape every process of one deployment must
// agree on; -hw is both spatial dimensions.
type geometry struct{ classes, inC, hw int }

func (g *geometry) register(fs *flag.FlagSet) {
	fs.IntVar(&g.classes, "classes", 10, "model output classes (must match every peer)")
	fs.IntVar(&g.inC, "inc", 3, "input channels")
	fs.IntVar(&g.hw, "hw", 16, "input spatial size")
}

func (g geometry) resnet() nn.ResNetSConfig {
	return nn.ResNetSConfig{
		InC: g.inC, H: g.hw, W: g.hw,
		StageChannels: []int{8, 16, 32}, Blocks: 1, Classes: g.classes,
	}
}

// model builds the geometry's model; servers, aggregators and replicas
// read only its shape, so the initialisation seed does not matter.
func (g geometry) model() *nn.Model { return nn.NewResNetS(tensor.NewRNG(1), g.resnet()) }

// service is what the long-running processes (server, agg, replica) share:
// the model geometry, the dirty-tracking block size, telemetry, and a
// foreground loop that prints stats until SIGINT or SIGTERM.
type service struct {
	geometry
	blockSize  int
	metrics    string
	statsEvery time.Duration
}

func (s *service) register(fs *flag.FlagSet, metrics string) {
	s.geometry.register(fs)
	fs.IntVar(&s.blockSize, "block-size", 0, "dirty-tracking block size in elements (power of two; 0 = auto-tune from the layer geometry)")
	metricsFlag(fs, &s.metrics, metrics)
	fs.DurationVar(&s.statsEvery, "stats", 10*time.Second, "stats print interval")
}

// blockShift converts a -block-size to a BlockShift: 0 keeps the auto-tuned
// default, a power of two n gives log2(n).
func blockShift(size int) (uint, error) {
	if size < 0 || size&(size-1) != 0 {
		return 0, fmt.Errorf("-block-size %d is not a power of two", size)
	}
	shift := uint(0)
	for 1<<shift < size {
		shift++
	}
	return shift, nil
}

// blockShift is the parsed -block-size as a BlockShift; a bad size is a
// usage error, exit status 2.
func (s service) blockShift() uint {
	shift, err := blockShift(s.blockSize)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tag, err)
		os.Exit(2)
	}
	return shift
}

// run calls stats every -stats interval and returns after stop has handled
// the first shutdown signal.
func (s service) run(stats func(), stop func(os.Signal)) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	tick := time.NewTicker(s.statsEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			stats()
		case sg := <-sig:
			stop(sg)
			return
		}
	}
}

func metricsFlag(fs *flag.FlagSet, addr *string, def string) {
	fs.StringVar(addr, "metrics", def, "telemetry HTTP address for /metrics and /debug/pprof (empty disables)")
}

// startMetrics serves telemetry at addr, with the run manifest m when not
// nil, announces it under label and returns the function that stops it; an
// empty addr serves nothing.
func startMetrics(addr, label string, m *telemetry.Manifest) (stop func()) {
	if addr == "" {
		return func() {}
	}
	msrv := must(telemetry.ListenAndServe(addr, nil))
	msrv.SetManifest(m)
	fmt.Printf("%s: telemetry on %s/metrics\n", label, msrv.URL())
	return func() { msrv.Close() }
}

// dialFlags registers the upstream endpoint, under the flag name addr, and
// the redial policy of worker, agg and replica.
func dialFlags(fs *flag.FlagSet, d *trainer.DialOptions, addr string) {
	fs.StringVar(&d.Addr, addr, "127.0.0.1:7000", "upstream server or aggregator address")
	fs.IntVar(&d.Retries, "retries", 8, "upstream redial retries per exchange")
	fs.DurationVar(&d.Backoff, "backoff", 50*time.Millisecond, "base of the full-jitter exponential upstream retry backoff")
	fs.DurationVar(&d.MaxBackoff, "max-backoff", 2*time.Second, "cap on the upstream retry backoff (0 = uncapped)")
	fs.DurationVar(&d.Timeout, "timeout", 30*time.Second, "upstream per-exchange deadline (0 disables)")
}

// admission is the overload and shutdown policy of the processes that
// accept worker sessions: server and agg.
type admission struct {
	maxInflight             int
	retryHint, drainTimeout time.Duration
}

func (a *admission) register(fs *flag.FlagSet) {
	fs.IntVar(&a.maxInflight, "max-inflight", 0, "admission bound on concurrently executing pushes (0 = unbounded); excess pushes get a RetryAfter frame")
	fs.DurationVar(&a.retryHint, "retry-hint", 5*time.Millisecond, "backoff hint attached to overload rejections")
	fs.DurationVar(&a.drainTimeout, "drain-timeout", 30*time.Second, "graceful-drain budget on SIGTERM before exiting anyway")
}

// drain announces the signal and gives drain at most the drain budget.
func (a admission) drain(s os.Signal, drain func(context.Context) error) {
	fmt.Printf("%s: %v — draining\n", tag, s)
	ctx, cancel := context.WithTimeout(context.Background(), a.drainTimeout)
	defer cancel()
	if err := drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "%s: drain incomplete: %v\n", tag, err)
	}
}

// training holds the flags train and worker share. Most bind straight to
// the dgs.Config field of the same meaning; the method name and the
// float32 rates are converted once parsed.
type training struct {
	dgs.Config
	method       string
	lr, momentum float64
}

func (t *training) register(fs *flag.FlagSet) {
	fs.StringVar(&t.method, "method", "dgs", "training method: "+methodNames)
	fs.IntVar(&t.Workers, "workers", 4, "number of asynchronous workers (every worker process must agree)")
	fs.IntVar(&t.BatchSize, "batch", 8, "per-worker batch size")
	fs.IntVar(&t.Epochs, "epochs", 6, "training epochs (total across workers)")
	fs.Float64Var(&t.lr, "lr", 0.1, "initial learning rate")
	fs.Float64Var(&t.momentum, "momentum", 0.7, "momentum coefficient m")
	fs.Float64Var(&t.KeepRatio, "keep", 0.01, "Top-k keep ratio R (0.01 = top 1%)")
	fs.StringVar(&t.Codec, "codec", "raw", "wire compression backend (raw|ternary|sbc); lossy codecs fold their error into the residual state")
	fs.Uint64Var(&t.Seed, "seed", 1, "random seed (workers must share it for identical θ0)")
	fs.IntVar(&t.PipelineDepth, "pipeline", 1, "in-flight exchanges per worker (1 = synchronous, >1 overlaps comm with compute)")
}

// methods names the training methods; gd and dgc also answer to their
// -async names.
var methods = map[string]trainer.Method{
	"msgd": trainer.MSGD, "asgd": trainer.ASGD, "dgs": trainer.DGS,
	"gd": trainer.GDAsync, "gd-async": trainer.GDAsync,
	"dgc": trainer.DGCAsync, "dgc-async": trainer.DGCAsync,
}

const methodNames = "msgd|asgd|gd|dgc|dgs"
