// Command dgs-worker runs one training worker against a standalone
// dgs-server. Model and dataset flags must match the server's geometry.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dgs/internal/data"
	"dgs/internal/nn"
	"dgs/internal/telemetry"
	"dgs/internal/tensor"
	"dgs/internal/trainer"
	"dgs/internal/transport"
)

func parseMethod(s string) (trainer.Method, error) {
	switch strings.ToLower(s) {
	case "msgd":
		return trainer.MSGD, nil
	case "asgd":
		return trainer.ASGD, nil
	case "gd", "gd-async":
		return trainer.GDAsync, nil
	case "dgc", "dgc-async":
		return trainer.DGCAsync, nil
	case "dgs":
		return trainer.DGS, nil
	}
	return 0, fmt.Errorf("unknown method %q", s)
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7000", "server address")
		id       = flag.Int("id", 0, "this worker's id (0..workers-1)")
		workers  = flag.Int("workers", 4, "total worker count (must match server)")
		method   = flag.String("method", "dgs", "msgd|asgd|gd|dgc|dgs")
		classes  = flag.Int("classes", 10, "model classes (must match server)")
		inC      = flag.Int("inc", 3, "input channels")
		inHW     = flag.Int("hw", 16, "input spatial size")
		batch    = flag.Int("batch", 8, "batch size")
		epochs   = flag.Int("epochs", 6, "epochs (total across workers)")
		lr       = flag.Float64("lr", 0.1, "learning rate")
		momentum = flag.Float64("momentum", 0.7, "momentum m")
		keep     = flag.Float64("keep", 0.01, "Top-k keep ratio")
		codec    = flag.String("codec", "raw", "wire compression backend (raw|ternary|sbc); lossy codecs fold their error into the residual state")
		seed     = flag.Uint64("seed", 1, "seed (must match other workers for identical θ0)")

		pipeline = flag.Int("pipeline", 1, "in-flight exchanges (1 = synchronous, >1 overlaps comm with compute)")

		retries    = flag.Int("retries", 8, "reconnect retries per exchange")
		backoff    = flag.Duration("backoff", 50*time.Millisecond, "base of the full-jitter exponential retry backoff")
		maxBackoff = flag.Duration("max-backoff", 2*time.Second, "cap on the retry backoff (0 = uncapped)")
		timeout    = flag.Duration("timeout", 30*time.Second, "per-exchange deadline (0 disables)")
		rejoins    = flag.Int("rejoins", 0, "crash-recovery budget: restart the loop as a fresh incarnation this many times")
		faultDrop  = flag.Float64("fault-drop", 0, "inject: P(request dropped before send)")
		faultTorn  = flag.Float64("fault-torn", 0, "inject: P(response torn after server processed)")
		faultDup   = flag.Float64("fault-dup", 0, "inject: P(request delivered twice)")
		faultReset = flag.Float64("fault-reset", 0, "inject: P(connection reset)")
		faultDelay = flag.Duration("fault-delay", 0, "inject: max random per-exchange delay")
		faultSeed  = flag.Uint64("fault-seed", 1, "fault injection schedule seed")
		metrics    = flag.String("metrics", "", "telemetry HTTP address for /metrics and /debug/pprof (empty disables)")
	)
	flag.Parse()

	if *metrics != "" {
		msrv, err := telemetry.ListenAndServe(*metrics, nil)
		fatalIf(err)
		defer msrv.Close()
		fmt.Printf("dgs-worker %d: telemetry on %s/metrics\n", *id, msrv.URL())
	}

	m, err := parseMethod(*method)
	fatalIf(err)

	dcfg := data.CIFARLike(*seed)
	dcfg.C, dcfg.H, dcfg.W = *inC, *inHW, *inHW
	dcfg.Classes = *classes
	ds := data.NewSyntheticImages(dcfg)

	mcfg := nn.ResNetSConfig{
		InC: *inC, H: *inHW, W: *inHW,
		StageChannels: []int{8, 16, 32}, Blocks: 1, Classes: *classes,
	}
	cfg := trainer.Config{
		Method: m, Workers: *workers, BatchSize: *batch, Epochs: *epochs,
		LR: float32(*lr), LRDecayAt: []int{*epochs * 6 / 10, *epochs * 8 / 10},
		Momentum: float32(*momentum), KeepRatio: *keep,
		Codec: *codec,
		Seed:  *seed, Dataset: ds,
		BuildModel:    func(rng *tensor.RNG) *nn.Model { return nn.NewResNetS(rng, mcfg) },
		EvalLimit:     512,
		PipelineDepth: *pipeline,
	}

	// Transport stack: trainer.NewDialStack builds the one client — a
	// PipelinedSession with -pipeline exchanges in flight over wire-v2 mux
	// links, each optionally wrapped in the seeded Faulty decorator (the
	// -fault-* flags apply at any depth). Each call is one worker
	// incarnation; its hello makes the server resync this id and ship a
	// dense snapshot.
	var faults *transport.FaultConfig
	if *faultDrop > 0 || *faultTorn > 0 || *faultDup > 0 || *faultReset > 0 || *faultDelay > 0 {
		faults = &transport.FaultConfig{
			Seed:           *faultSeed,
			DropBeforeSend: *faultDrop,
			DropAfterSend:  *faultTorn,
			Duplicate:      *faultDup,
			Reset:          *faultReset,
			Delay:          0.25,
			MaxDelay:       *faultDelay,
		}
	}
	dialStack := trainer.NewDialStack(trainer.DialOptions{
		Addr:     *addr,
		Pipeline: *pipeline,
		Retries:  *retries, Backoff: *backoff, MaxBackoff: *maxBackoff,
		Timeout: *timeout,
		Faults:  faults,
	})

	fmt.Printf("dgs-worker %d: connecting to %s, method=%s\n", *id, *addr, m)
	res, err := trainer.RunResilientWorkerLoop(cfg, *id, dialStack, *rejoins)
	fatalIf(err)
	fmt.Printf("dgs-worker %d: done, %d iterations, final loss %.4f\n", *id, res.Iterations, res.Loss.Last().Y)
	if *id == 0 {
		fmt.Printf("dgs-worker 0: final top-1 accuracy %.2f%%\n", 100*res.FinalAccuracy)
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dgs-worker:", err)
		os.Exit(1)
	}
}
