package trainer

import (
	"errors"
	"fmt"
	"sync/atomic"

	"dgs/internal/stats"
	"dgs/internal/tensor"
	"dgs/internal/transport"
)

// RunWorkerLoop runs a single worker's training loop against an external
// transport — the multi-process deployment mode, where the parameter server
// lives in another process (`dgs server`) and each `dgs worker` process
// calls this. The transport must be a transport.Pipeliner (a session from
// NewDialStack, or a Loopback); the final model sync of worker 0 runs on it
// too. The worker processes its 1/Workers share of the total iteration
// budget. Worker 0 evaluates and reports accuracy; other workers report
// loss only.
func RunWorkerLoop(cfg Config, id int, tr transport.Transport) (*Result, error) {
	if err := cfg.normalise(); err != nil {
		return nil, err
	}
	if id < 0 || id >= cfg.Workers {
		return nil, fmt.Errorf("trainer: worker id %d out of range [0,%d)", id, cfg.Workers)
	}
	pipe, ok := tr.(transport.Pipeliner)
	if !ok {
		return nil, fmt.Errorf("trainer: worker %d: transport %T is not a transport.Pipeliner", id, tr)
	}
	totalIters := cfg.Epochs * cfg.Dataset.NumTrain() / cfg.BatchSize
	share := totalIters / cfg.Workers
	if share < 1 {
		share = 1
	}

	res := &Result{
		Method:   cfg.Method,
		Loss:     stats.NewSeries(fmt.Sprintf("%s-w%d-loss", cfg.Method, id)),
		Accuracy: stats.NewSeries(fmt.Sprintf("%s-w%d-acc", cfg.Method, id)),
	}
	var iterCounter, computeNanos atomic.Int64
	// The remote worker paces its own share; the LR schedule position is
	// approximated by (local iteration × Workers), which matches the global
	// counter in expectation.
	localLR := newSchedule(&cfg, totalIters)
	w := worker{
		cfg: &cfg, id: id, sizes: nil, tr: pipe,
		totalIters: share, samplesPerEpoch: float64(cfg.Dataset.NumTrain()) / float64(cfg.Workers),
		iterCounter: &iterCounter, computeNanos: &computeNanos,
		lr:  func(iter int64) float32 { return localLR(iter * int64(cfg.Workers)) },
		res: res,
	}
	proto := cfg.BuildModel(tensor.NewRNG(cfg.Seed))
	w.sizes = proto.LayerSizes()

	model, err := w.run()
	if err != nil {
		return nil, err
	}
	res.Iterations = share
	if id == 0 {
		if err := syncModel(tr, id, model); err != nil {
			return nil, err
		}
		res.FinalAccuracy = evaluate(&cfg, model)
	}
	res.ComputePerIter = float64(computeNanos.Load()) / 1e9 / float64(max(share, 1))
	return res, nil
}

// RunResilientWorkerLoop is RunWorkerLoop with crash/rejoin recovery: each
// attempt dials a fresh session (typically through NewDialStack), and when
// an attempt dies on a transport failure
// the loop rejoins as a new worker incarnation — the session hello makes
// the server Resync this worker and ship a dense snapshot, so the rebuilt
// θ0 replica lands on the current server model and training continues.
// Worker-side optimizer residuals from the dead incarnation are
// unrecoverable (the failure model's accepted loss); everything the server
// committed survives exactly once.
//
// maxRestarts bounds rejoin attempts after the first. A stale-session
// rejection (another live incarnation owns this worker id) is fatal and is
// returned immediately — rejoining would fence out the legitimate owner.
func RunResilientWorkerLoop(cfg Config, id int, dial func() (transport.Transport, error), maxRestarts int) (*Result, error) {
	var lastErr error
	for attempt := 0; attempt <= maxRestarts; attempt++ {
		tr, err := dial()
		if err != nil {
			lastErr = err
			continue
		}
		res, err := RunWorkerLoop(cfg, id, tr)
		tr.Close()
		if err == nil {
			return res, nil
		}
		if errors.Is(err, transport.ErrStaleSession) {
			return nil, fmt.Errorf("trainer: worker %d superseded: %w", id, err)
		}
		lastErr = err
	}
	return nil, fmt.Errorf("trainer: worker %d gave up after %d attempts: %w", id, maxRestarts+1, lastErr)
}
