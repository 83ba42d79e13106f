// Package trainer orchestrates full asynchronous distributed training runs:
// it builds the model replicas, the DGS parameter server, and N concurrent
// worker goroutines, wires them through a transport, and records the
// metrics (loss curves, accuracy, traffic, staleness) that the paper's
// tables and figures report.
package trainer

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"dgs/internal/data"
	"dgs/internal/nn"
	"dgs/internal/optim"
	"dgs/internal/sparse"
	"dgs/internal/stats"
	"dgs/internal/telemetry"
	"dgs/internal/tensor"
	"dgs/internal/transport"
)

// Method selects the training algorithm under comparison (paper Table 5).
type Method int

// The five methods evaluated in the paper.
const (
	// MSGD is single-node momentum SGD, the accuracy baseline.
	MSGD Method = iota
	// ASGD is vanilla asynchronous SGD: dense gradients up, whole model down.
	ASGD
	// GDAsync is Gradient Dropping with model-difference downward
	// compression ("DGS without SAMomentum").
	GDAsync
	// DGCAsync is Deep Gradient Compression (momentum correction + factor
	// masking) over the same dual-way path.
	DGCAsync
	// DGS is the paper's method: dual-way sparsification + SAMomentum.
	DGS
)

// String returns the paper's name for the method.
func (m Method) String() string {
	switch m {
	case MSGD:
		return "MSGD"
	case ASGD:
		return "ASGD"
	case GDAsync:
		return "GD-async"
	case DGCAsync:
		return "DGC-async"
	case DGS:
		return "DGS"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// AllMethods lists the methods in the paper's table order.
var AllMethods = []Method{MSGD, ASGD, GDAsync, DGCAsync, DGS}

// Config describes one training run.
type Config struct {
	// Method is the algorithm to run. Run and RunWorkerLoop force
	// Workers=1 for MSGD; RunSync runs it at Workers as synchronous SGD.
	Method Method
	// Workers is the number of workers.
	Workers int
	// BatchSize is the per-worker minibatch size.
	BatchSize int
	// Epochs is the number of passes over the training set (total across
	// workers, as in data-parallel training).
	Epochs int
	// LR is the initial learning rate.
	LR float32
	// LRDecayAt lists epoch indices at which LR is multiplied by 0.1
	// (paper: at epochs 30 and 40 of 50).
	LRDecayAt []int
	// Momentum is m for MSGD/DGC/DGS (paper: 0.7, or 0.45/0.3 at scale).
	Momentum float32
	// KeepRatio is the upward sparsification keep fraction (0.01 = top 1%).
	KeepRatio float64
	// Secondary enables downward secondary compression with SecondaryRatio.
	Secondary      bool
	SecondaryRatio float64
	// GradClip, when positive, clips each iteration's gradient to this
	// global L2 norm before the optimizer (DGC uses clipping).
	GradClip float32
	// Codec selects the wire compression backend for both directions
	// ("raw"/"" = exact sparse chunks, "sbc" = sparse binary compression;
	// DESIGN.md §6). SBC folds its projection error into the worker's
	// optimizer residual on the way up (SAMomentum keeps a separate error
	// memory for it) and into the server's v_k on the way down, so each
	// error is delivered once and the Eq. 5 drain invariant still holds
	// bitwise. The server mirrors the worker's codec per exchange, so mixed
	// fleets interoperate.
	Codec string
	// WeightDecay, when positive, adds L2 regularisation: the gradient
	// becomes ∇ + wd·θ before the update rule (standard for ResNet-style
	// training).
	WeightDecay float32
	// WarmupFrac, when positive, enables DGC-style warm-up over that
	// fraction of training: the learning rate ramps linearly and the keep
	// ratio anneals from 0.25 down to KeepRatio.
	WarmupFrac float64
	// Seed drives model init, data order and jitter; same seed + same
	// method is reproducible up to goroutine interleaving.
	Seed uint64
	// BuildModel constructs the network. It is called once per worker plus
	// once for geometry discovery, always with an RNG seeded identically so
	// every replica starts from the same θ0.
	BuildModel func(rng *tensor.RNG) *nn.Model
	// Dataset supplies examples.
	Dataset data.Dataset
	// EvalEveryEpochs controls accuracy evaluation frequency (default 1).
	EvalEveryEpochs int
	// EvalLimit caps test examples per evaluation (0 = all).
	EvalLimit int
	// TCPAddr, when non-empty (e.g. "127.0.0.1:0"), runs the exchange over
	// real TCP sockets: the run starts an in-process exactly-once parameter
	// server and every worker dials its own session. Empty means in-process
	// loopback.
	TCPAddr string
	// PipelineDepth bounds each worker's in-flight exchanges. 0 or 1 is the
	// synchronous exchange (each step submits and awaits at once, so
	// baselines and the paper figures are unchanged); D > 1 overlaps up to
	// D exchanges with compute, applying each downward difference at the
	// next batch boundary — bounded-delay ASGD with at most D−1 extra
	// steps of client-side delay (see DESIGN.md §7, §8).
	PipelineDepth int
	// MetricsAddr, when non-empty (e.g. "127.0.0.1:9090" or ":0"), serves
	// the telemetry HTTP endpoint (/metrics, /manifest, /debug/pprof) for
	// the duration of the run.
	MetricsAddr string
	// ManifestPath, when non-empty, writes the JSON run manifest (static
	// run descriptors + live metric export) to this file every 10 s.
	ManifestPath string
}

// Result captures everything a run produced.
type Result struct {
	Method Method
	// FinalAccuracy is top-1 accuracy at the end of training, measured on
	// worker 0's replica after a final synchronisation with the server.
	FinalAccuracy float64
	// Loss is training loss vs epoch (x = fractional epoch).
	Loss *stats.Series
	// Accuracy is test accuracy vs epoch.
	Accuracy *stats.Series
	// Iterations is the total number of worker pushes.
	Iterations int
	// BytesUp/BytesDown are total encoded update bytes, without session or
	// framing headers, so loopback and TCP runs agree (training only,
	// excluding the final evaluation sync).
	BytesUp, BytesDown int64
	// AvgUpBytes/AvgDownBytes are mean bytes per iteration, used to drive
	// the network simulator for the wall-clock experiments.
	AvgUpBytes, AvgDownBytes float64
	// MeanStaleness and MaxStaleness summarise the asynchrony the server
	// observed.
	MeanStaleness float64
	MaxStaleness  uint64
	// ServerStateBytes and WorkerStateBytes report memory (paper §5.6.2).
	ServerStateBytes, WorkerStateBytes int
	// ComputePerIter is the mean measured forward+backward seconds per
	// iteration (feeds the network simulator).
	ComputePerIter float64
}

// normalise fills defaults and validates.
func (c *Config) normalise() error {
	if c.Method == MSGD {
		c.Workers = 1
	}
	if c.Workers < 1 {
		return fmt.Errorf("trainer: workers %d < 1", c.Workers)
	}
	if c.BatchSize < 1 || c.Epochs < 1 {
		return fmt.Errorf("trainer: batch %d and epochs %d must be positive", c.BatchSize, c.Epochs)
	}
	if c.BuildModel == nil || c.Dataset == nil {
		return fmt.Errorf("trainer: BuildModel and Dataset are required")
	}
	if c.EvalEveryEpochs == 0 {
		c.EvalEveryEpochs = 1
	}
	if c.WarmupFrac < 0 || c.WarmupFrac > 1 {
		return fmt.Errorf("trainer: warmup fraction %v out of [0,1]", c.WarmupFrac)
	}
	if c.PipelineDepth < 0 {
		return fmt.Errorf("trainer: pipeline depth %d < 0", c.PipelineDepth)
	}
	if c.PipelineDepth > transport.DefaultReplayWindow {
		// The server's replay window must cover every in-flight frame a
		// reconnecting pipelined client replays.
		return fmt.Errorf("trainer: pipeline depth %d exceeds the replay window %d",
			c.PipelineDepth, transport.DefaultReplayWindow)
	}
	switch c.Method {
	case GDAsync, DGCAsync, DGS:
		if c.KeepRatio <= 0 || c.KeepRatio > 1 {
			return fmt.Errorf("trainer: keep ratio %v out of (0,1]", c.KeepRatio)
		}
	}
	switch c.Method {
	case MSGD, DGCAsync, DGS:
		if c.Momentum <= 0 || c.Momentum >= 1 {
			return fmt.Errorf("trainer: momentum %v out of (0,1) for %s", c.Momentum, c.Method)
		}
	}
	if _, err := sparse.CodecByName(c.Codec); err != nil {
		return fmt.Errorf("trainer: %w", err)
	}
	return nil
}

// buildOptimizer returns the worker update rule for the method.
func buildOptimizer(cfg *Config, sizes []int) optim.WorkerOptimizer {
	switch cfg.Method {
	case MSGD:
		return optim.NewDenseMomentum(sizes, cfg.Momentum)
	case ASGD:
		return optim.NewDenseSGD()
	case GDAsync:
		return optim.NewGradientDropping(sizes, cfg.KeepRatio)
	case DGCAsync:
		return optim.NewDGC(sizes, cfg.Momentum, cfg.KeepRatio)
	case DGS:
		return optim.NewSAMomentum(sizes, cfg.Momentum, cfg.KeepRatio)
	default:
		panic(fmt.Sprintf("trainer: unknown method %v", cfg.Method))
	}
}

// exchangeScratch is one handler call's Updates: the decoded push and the
// header of the difference Push returns. Pooling the pair keeps both off
// the per-exchange allocation count (the difference's address reaches a
// Quantizer interface call, so a local would escape). Response byte slices
// are not pooled: the exactly-once replay cache retains them, so they must
// stay freshly allocated.
type exchangeScratch struct{ push, diff sparse.Update }

var scratchPool = sync.Pool{New: func() any { return new(exchangeScratch) }}

// Run executes a full training run and returns its result.
func Run(cfg Config) (*Result, error) {
	if err := cfg.normalise(); err != nil {
		return nil, err
	}

	// Build a throwaway model to learn the layer geometry.
	proto := cfg.BuildModel(tensor.NewRNG(cfg.Seed))
	sizes := proto.LayerSizes()

	server, _ := NewServer(&cfg, sizes, nil) // only a restore can fail

	// Observability: optional HTTP endpoint and periodic run manifest. The
	// metrics themselves are always recorded (the instrumented packages feed
	// the process-wide registry); these only control exposure.
	if cfg.MetricsAddr != "" || cfg.ManifestPath != "" {
		manifest := runManifest(&cfg, proto.NumParams())
		if cfg.MetricsAddr != "" {
			msrv, err := telemetry.ListenAndServe(cfg.MetricsAddr, nil)
			if err != nil {
				return nil, err
			}
			msrv.SetManifest(manifest)
			defer msrv.Close()
		}
		if cfg.ManifestPath != "" {
			stop := manifest.StartPeriodic(cfg.ManifestPath, 0)
			defer stop()
		}
	}

	// Every worker gets its own Pipeliner: a loopback into the codec
	// handler, or over TCP a session to the deployed stack. Traffic is
	// counted by the codec handler in both modes, so it sees application
	// payloads and both modes report one volume.
	var traffic *transport.Traffic
	trs := make([]transport.Pipeliner, cfg.Workers)
	if cfg.TCPAddr != "" {
		ep, err := Serve(server, ServeOptions{Addr: cfg.TCPAddr})
		if err != nil {
			return nil, err
		}
		defer ep.TCP.Close()
		traffic = ep.Traffic
		dial := NewDialStack(DialOptions{Addr: ep.TCP.Addr(), Pipeline: cfg.PipelineDepth})
		for k := range trs {
			if trs[k], err = dial(); err != nil {
				return nil, err
			}
		}
	} else {
		h := newCodecHandler(server)
		traffic = &h.metrics.traffic
		for k := range trs {
			trs[k] = transport.NewLoopback(func(worker int, payload []byte) ([]byte, error) { return h.handle(nil, worker, payload) })
		}
	}
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()

	totalIters := cfg.Epochs * cfg.Dataset.NumTrain() / cfg.BatchSize
	if totalIters < 1 {
		totalIters = 1
	}
	samplesPerEpoch := float64(cfg.Dataset.NumTrain())

	res := &Result{
		Method:   cfg.Method,
		Loss:     stats.NewSeries(cfg.Method.String() + "-loss"),
		Accuracy: stats.NewSeries(cfg.Method.String() + "-acc"),
	}

	var iterCounter atomic.Int64
	var computeNanos atomic.Int64
	lr := newSchedule(&cfg, totalIters)
	models := make([]*nn.Model, cfg.Workers)

	var wg sync.WaitGroup
	errCh := make(chan error, cfg.Workers)
	for k := 0; k < cfg.Workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			w := worker{
				cfg: &cfg, id: k, sizes: sizes, tr: trs[k],
				totalIters: totalIters, samplesPerEpoch: samplesPerEpoch,
				iterCounter: &iterCounter, computeNanos: &computeNanos,
				lr: lr, res: res,
			}
			m, err := w.run()
			models[k] = m
			if err != nil {
				errCh <- err
			}
		}(k)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return nil, err
	}

	res.Iterations = totalIters
	res.BytesUp = traffic.Up()
	res.BytesDown = traffic.Down()
	if n := traffic.Exchanges(); n > 0 {
		res.AvgUpBytes = float64(res.BytesUp) / float64(n)
		res.AvgDownBytes = float64(res.BytesDown) / float64(n)
	}
	st := server.Stats()
	res.MaxStaleness = st.MaxStaleness
	if st.Pushes > 0 {
		res.MeanStaleness = float64(st.StalenessSum) / float64(st.Pushes)
	}
	res.ServerStateBytes = server.StateBytes()
	res.ComputePerIter = float64(computeNanos.Load()) / 1e9 / float64(max(totalIters, 1))

	// Final accuracy: sync worker 0's replica with the server (empty pushes
	// drain any secondary-compression remainder), then evaluate. Traffic
	// counters above were captured before this sync. The sync reuses worker
	// 0's session: a fresh one's hello would resync v_0 and ship the dense
	// M, which added onto the replica would double it.
	if err := syncModel(trs[0], 0, models[0]); err != nil {
		return nil, err
	}
	res.FinalAccuracy = evaluate(&cfg, models[0])
	res.Accuracy.Add(float64(cfg.Epochs), res.FinalAccuracy)
	return res, nil
}

// runManifest assembles the static run descriptors for the telemetry
// manifest (the live metrics section is filled at snapshot time).
func runManifest(cfg *Config, params int) *telemetry.Manifest {
	m := telemetry.NewManifest(nil)
	m.Set("method", cfg.Method.String())
	m.Set("workers", cfg.Workers)
	m.Set("batch_size", cfg.BatchSize)
	m.Set("epochs", cfg.Epochs)
	m.Set("lr", cfg.LR)
	m.Set("momentum", cfg.Momentum)
	m.Set("keep_ratio", cfg.KeepRatio)
	m.Set("secondary", cfg.Secondary)
	m.Set("secondary_ratio", cfg.SecondaryRatio)
	m.Set("seed", cfg.Seed)
	m.Set("params", params)
	m.Set("tcp", cfg.TCPAddr != "")
	return m
}

// syncModel exchanges empty updates until the downward difference drains,
// leaving the model equal to the server model.
func syncModel(tr transport.Transport, id int, model *nn.Model) error {
	params := model.Params()
	empty := sparse.Encode(&sparse.Update{})
	for i := 0; i < 256; i++ {
		resp, err := tr.Exchange(id, empty)
		if err != nil {
			return fmt.Errorf("trainer: final sync: %w", err)
		}
		// Empty pushes are always answered in codec 0 (the drain rule), but
		// decode defensively through the codec table regardless.
		G := &sparse.Update{}
		if err := sparse.DecodeAnyInto(G, resp); err != nil {
			return fmt.Errorf("trainer: final sync decode: %w", err)
		}
		// Dense-downward servers always answer with every coordinate, so
		// "drained" means all-zero values, not an empty update.
		allZero := true
		for ci := range G.Chunks {
			for _, v := range G.Chunks[ci].Val {
				if v != 0 {
					allZero = false
					break
				}
			}
			if !allZero {
				break
			}
		}
		if allZero {
			return nil
		}
		for ci := range G.Chunks {
			c := &G.Chunks[ci]
			sparse.Scatter(c, params[c.Layer].Value.Data, 1)
		}
	}
	return nil // bounded drain: good enough if a remainder persists
}

const (
	// lrDecayFactor multiplies the learning rate at each Config.LRDecayAt
	// epoch (the paper's ×0.1).
	lrDecayFactor = 0.1
	// warmupKeepStart is the keep ratio warm-up starts from when
	// Config.WarmupFrac is set.
	warmupKeepStart = 0.25
)

// newSchedule returns the step-decay learning-rate schedule as a function of
// the global iteration.
func newSchedule(cfg *Config, totalIters int) func(int64) float32 {
	itersPerEpoch := float64(totalIters) / float64(cfg.Epochs)
	decays := append([]int(nil), cfg.LRDecayAt...)
	base := cfg.LR
	return func(iter int64) float32 {
		epoch := float64(iter) / itersPerEpoch
		lr := base
		for _, d := range decays {
			if epoch >= float64(d) {
				lr *= lrDecayFactor
			}
		}
		return lr
	}
}

// worker bundles the state of one training goroutine.
type worker struct {
	cfg             *Config
	id              int
	sizes           []int
	tr              transport.Pipeliner
	totalIters      int
	samplesPerEpoch float64
	iterCounter     *atomic.Int64
	computeNanos    *atomic.Int64
	lr              func(int64) float32
	res             *Result

	// down is the decoded downward update, reused so the steady-state loop
	// allocates nothing in the exchange path.
	down sparse.Update
}

// run is the worker training loop, with up to PipelineDepth exchanges in
// flight: step t's Top-k encode → round trip → downward decode overlaps
// step t+1's forward/backward. Responses are awaited strictly in submit
// order and applied at the next batch boundary, so the replica is always
// the server state as of some recent exchange — bounded-delay ASGD with at
// most depth−1 steps of client-side delay folded into the staleness the
// server already accounts for (the in-flight pushes advance its clock
// before this worker applies their responses). At depth 1 each step submits
// and awaits at once: the synchronous exchange. It returns the model
// replica so the coordinator can evaluate the final state.
//
// SAMomentum/residual correctness across in-flight boundaries: Prepare runs
// serially in this goroutine and performs the unsent-coordinate rescale
// (Eq. 14–16) before the payload is handed to the transport, and the
// payload is immediately encoded into a private ring slot — the optimizer
// state is never referenced after handoff.
func (w *worker) run() (*nn.Model, error) {
	cfg := w.cfg
	depth := max(cfg.PipelineDepth, 1)
	// Identical init across replicas: every worker seeds its model RNG the
	// same way, so all start from θ0 (the PS tracks only differences).
	model := cfg.BuildModel(tensor.NewRNG(cfg.Seed))
	opt := buildOptimizer(cfg, w.sizes)
	if w.id == 0 {
		w.res.WorkerStateBytes = opt.StateBytes()
	}
	loader := data.NewLoader(cfg.Dataset, cfg.BatchSize, cfg.Seed+uint64(1000+w.id), true)
	codec := newUpCodec(cfg.Codec, opt)
	pipe := w.tr

	// A submitted payload is owned by the transport until its Await
	// resolves (the session retains the bytes for replay-on-reconnect), so
	// each in-flight exchange needs its own grow-once encode buffer.
	encBufs := make([][]byte, depth+1)
	encSlot := 0

	nextEval := float64(cfg.EvalEveryEpochs)
	params := model.Params()

	// awaitApply resolves the oldest in-flight exchange and applies its
	// downward model difference to the replica.
	awaitApply := func() error {
		a0 := time.Now()
		respBytes, err := pipe.Await()
		blocked := time.Since(a0)
		pipeMet.blockedSeconds.Add(blocked.Seconds())
		pipeMet.stageAwait.Observe(blocked.Seconds())
		pipeMet.inflight.Set(float64(pipe.InFlight()))
		if err != nil {
			return fmt.Errorf("trainer: worker %d exchange: %w", w.id, err)
		}
		if err := sparse.DecodeAnyInto(&w.down, respBytes); err != nil {
			return fmt.Errorf("trainer: worker %d decode response: %w", w.id, err)
		}
		p0 := time.Now()
		for ci := range w.down.Chunks {
			c := &w.down.Chunks[ci]
			sparse.Scatter(c, params[c.Layer].Value.Data, 1)
		}
		pipeMet.stageApply.Observe(time.Since(p0).Seconds())
		return nil
	}

	for {
		iter := w.iterCounter.Add(1) - 1
		if iter >= int64(w.totalIters) {
			// Drain: every in-flight response must land on the replica
			// before it is returned for evaluation (and before the final
			// syncModel reuses the transport synchronously).
			for pipe.InFlight() > 0 {
				if err := awaitApply(); err != nil {
					return model, err
				}
			}
			return model, nil
		}
		batch := loader.Next()

		iterStart := time.Now()
		t0 := iterStart
		model.ZeroGrad()
		logits := model.Forward(batch.X, true)
		loss, g := nn.SoftmaxCrossEntropy(logits, batch.Labels)
		model.Backward(g)
		w.computeNanos.Add(time.Since(t0).Nanoseconds())

		grads := model.Gradients()
		if cfg.WeightDecay > 0 {
			for i, g := range grads {
				tensor.Axpy(cfg.WeightDecay, params[i].Value.Data, g)
			}
		}
		if cfg.GradClip > 0 {
			clipGlobalNorm(grads, cfg.GradClip)
		}
		stepLR := w.lr(iter)
		if cfg.WarmupFrac > 0 {
			progress := float64(iter) / float64(w.totalIters)
			stepLR *= float32(optim.LRWarmup(progress, cfg.WarmupFrac))
			if rs, ok := opt.(optim.RatioSetter); ok {
				rs.SetKeepRatio(optim.SparsityWarmup(progress, cfg.WarmupFrac, warmupKeepStart, cfg.KeepRatio))
			}
		}
		upd := opt.Prepare(grads, stepLR)
		e0 := time.Now()
		payload := codec.encode(encBufs[encSlot][:0], &upd)
		encBufs[encSlot] = payload
		encSlot = (encSlot + 1) % len(encBufs)
		pipeMet.stageEncode.Observe(time.Since(e0).Seconds())

		s0 := time.Now()
		if err := pipe.Submit(w.id, payload); err != nil {
			return model, fmt.Errorf("trainer: worker %d submit: %w", w.id, err)
		}
		pipeMet.stageSubmit.Observe(time.Since(s0).Seconds())
		pipeMet.inflight.Set(float64(pipe.InFlight()))

		// The window is full once depth exchanges are in flight: resolve
		// the oldest (at depth > 1 submitted before this step's compute
		// began, so its round trip has been hiding behind it) and apply its
		// difference at this batch boundary.
		if pipe.InFlight() >= depth {
			if err := awaitApply(); err != nil {
				return model, err
			}
		}
		observeStep(iterStart)

		epoch := float64(iter+1) * float64(cfg.BatchSize) / w.samplesPerEpoch
		w.res.Loss.Add(epoch, loss)

		// Worker 0 owns periodic evaluation. It runs between its own
		// iterations on its own replica, which lags the server by the
		// in-flight responses (at most depth−1 steps), so no
		// synchronisation with other workers is needed.
		if w.id == 0 && epoch >= nextEval {
			acc := evaluate(cfg, model)
			w.res.Accuracy.Add(epoch, acc)
			for epoch >= nextEval {
				nextEval += float64(cfg.EvalEveryEpochs)
			}
		}
	}
}

// evaluate runs test-set accuracy on the given model (eval mode).
func evaluate(cfg *Config, model *nn.Model) float64 {
	classes := cfg.Dataset.Classes()
	return data.Evaluate(cfg.Dataset, 64, cfg.EvalLimit, func(x *tensor.Tensor) []int {
		logits := model.Forward(x, false)
		preds := make([]int, x.Dim(0))
		for i := range preds {
			preds[i] = tensor.ArgMax(logits.Data[i*classes : (i+1)*classes])
		}
		return preds
	})
}

// clipGlobalNorm scales all gradients so their joint L2 norm is at most c.
func clipGlobalNorm(grads [][]float32, c float32) {
	var sq float64
	for _, g := range grads {
		for _, v := range g {
			sq += float64(v) * float64(v)
		}
	}
	norm := math.Sqrt(sq)
	if norm <= float64(c) || norm == 0 {
		return
	}
	scale := c / float32(norm)
	for _, g := range grads {
		tensor.Scale(scale, g)
	}
}
