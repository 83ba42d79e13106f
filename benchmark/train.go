package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"dgs/internal/data"
	"dgs/internal/nn"
	"dgs/internal/ps"
	"dgs/internal/tensor"
	"dgs/internal/trainer"
	"dgs/internal/transport"
)

// trainSpec is one training workload: what the workers train, how the
// exchange is configured, and the quality target the run must reach.
type trainSpec struct {
	model   func(rng *tensor.RNG) *nn.Model
	dataset func(seed uint64) data.Dataset
	batch   int
	keep    float64
	lr      float32
	// secondary turns on the Eq. 6 downward Top-k at ratio 0.05; depth 2
	// selects the pipelined loop over PipelinedSession/MuxConn; shards > 1 a
	// ShardedServer.
	secondary bool
	depth     int
	shards    int
	// epochs sizes one episode: RunWorkerLoop gives the workers
	// epochs·NumTrain/batch steps between them.
	epochs int
	// The target is reached at the first step whose trailing-window mean
	// training loss is at most target; the final trailing mean must be at
	// most target as well.
	window int
	target float64
}

const (
	trainWorkers = 2
	warmupSteps  = 64 // steps (and, in the fleet workloads, pushes) before the rate window opens
)

func (s *trainSpec) config(seed uint64) trainer.Config {
	return trainer.Config{
		Method: trainer.DGS, Workers: trainWorkers, BatchSize: s.batch,
		LR: s.lr, Momentum: 0.7, KeepRatio: s.keep,
		Secondary: s.secondary, SecondaryRatio: 0.05, PipelineDepth: s.depth,
		Seed: seed, BuildModel: s.model, Epochs: s.epochs, Dataset: s.dataset(seed),
		// Worker 0 evaluates test accuracy when a run ends; keep that to one batch.
		EvalEveryEpochs: 1 << 30, EvalLimit: 64,
	}
}

// exchangeLog is one worker's exchanges as seen from its side of the wire:
// when each step ended, the payload bytes that had crossed by then, and
// how long each exchange took from hand-over to response.
type exchangeLog struct {
	inflight  []sentExchange // submitted, not yet awaited; oldest first
	up, down  int64          // payload bytes sent and received so far
	stepEnd   []time.Time
	stepBytes []int64 // up + down as of each step's end
	latency   []time.Duration
}

type sentExchange struct {
	at   time.Time
	step int
}

func (l *exchangeLog) submitted(at time.Time, step, upBytes int) {
	l.inflight = append(l.inflight, sentExchange{at, step})
	l.up += int64(upBytes)
}

// awaited retires the oldest in-flight exchange and returns when and in
// which step it was submitted.
func (l *exchangeLog) awaited(at time.Time, downBytes int) (time.Time, int) {
	sent := l.inflight[0]
	l.inflight = l.inflight[:copy(l.inflight, l.inflight[1:])]
	l.down += int64(downBytes)
	l.latency = append(l.latency, at.Sub(sent.at))
	return sent.at, sent.step
}

func (l *exchangeLog) stepDone(at time.Time) {
	l.stepEnd = append(l.stepEnd, at)
	l.stepBytes = append(l.stepBytes, l.up+l.down)
}

// amendStep moves the last step's end to at: in the pipelined loop a step
// ends with the Await that follows its Submit.
func (l *exchangeLog) amendStep(at time.Time) {
	l.stepEnd[len(l.stepEnd)-1] = at
	l.stepBytes[len(l.stepBytes)-1] = l.up + l.down
}

// meter is the only thing the untraced pass puts between the production
// worker loop and its transport: it timestamps and sizes each of the first
// limit exchanges (the worker's steps) and passes later ones (the end-of-run
// model sync) through untouched.
type meter struct {
	transport.Transport
	log   exchangeLog
	limit int
}

func (m *meter) Exchange(worker int, payload []byte) ([]byte, error) {
	if len(m.log.stepEnd) >= m.limit {
		return m.Transport.Exchange(worker, payload)
	}
	t0 := time.Now()
	resp, err := m.Transport.Exchange(worker, payload)
	if err == nil {
		t1 := time.Now()
		m.log.submitted(t0, len(m.log.stepEnd), len(payload))
		m.log.awaited(t1, len(resp))
		m.log.stepDone(t1)
	}
	return resp, err
}

// Submit, Await and InFlight make the meter a transport.Pipeliner, which
// the production loop looks for at PipelineDepth > 1.
func (m *meter) Submit(worker int, payload []byte) error {
	t0 := time.Now()
	if err := m.Transport.(transport.Pipeliner).Submit(worker, payload); err != nil {
		return err
	}
	m.log.submitted(t0, len(m.log.stepEnd), len(payload))
	m.log.stepDone(time.Now())
	return nil
}

func (m *meter) Await() ([]byte, error) {
	resp, err := m.Transport.(transport.Pipeliner).Await()
	if err == nil {
		t1 := time.Now()
		m.log.awaited(t1, len(resp))
		m.log.amendStep(t1)
	}
	return resp, err
}

func (m *meter) InFlight() int { return m.Transport.(transport.Pipeliner).InFlight() }

// episode is what one fresh topology, set up, measured and checked, produced.
type episode struct {
	setup         time.Duration
	measured      time.Duration // length of the measured window
	stepsPerS     float64
	latency       []time.Duration // one per exchange after warm-up
	timeToTarget  float64         // seconds; 0 when the target was not reached
	bytesToTarget float64
	stepsToTarget int
	attempted     int
	failed        int
	problems      []string           // what each failed output check found
	lag, late     []time.Duration    // replica reader: staleness per tick, and how late ticks ran
	counts        map[string]float64 // additive per-layer counts, summed over a run's episodes
}

func (e *episode) fail(format string, args ...any) {
	e.failed++
	e.problems = append(e.problems, fmt.Sprintf(format, args...))
}

// runTrainEpisode sets up server, listener and two dialled workers over
// loopback TCP, trains one episode and checks its outputs. With tcr nil
// the workers run trainer.RunWorkerLoop; otherwise the traced loop.
func runTrainEpisode(spec *trainSpec, seed uint64, tcr *tracer) (*episode, error) {
	runtime.GC()
	ep := &episode{counts: map[string]float64{}}
	t0 := time.Now()
	cfg := spec.config(seed)
	sizes := cfg.BuildModel(tensor.NewRNG(seed)).LayerSizes()
	st, err := newStack(ps.Config{
		LayerSizes: sizes, Workers: trainWorkers,
		Secondary: cfg.Secondary, SecondaryRatio: cfg.SecondaryRatio,
	}, spec.shards, serverTrace{tr: tcr, parent: spanExchange, reader: -1})
	if err != nil {
		return nil, err
	}
	defer st.lis.Close()
	trs := make([]transport.Transport, trainWorkers)
	defer func() {
		for _, tr := range trs {
			if tr != nil {
				tr.Close()
			}
		}
	}()
	for k := range trs {
		if trs[k], err = dialWorker(st.lis.Addr(), k, spec.depth); err != nil {
			return nil, err
		}
	}
	ep.setup = time.Since(t0)

	steps := cfg.Epochs * cfg.Dataset.NumTrain() / cfg.BatchSize
	share := steps / trainWorkers
	logs := make([]*exchangeLog, trainWorkers)
	losses := make([][]float64, trainWorkers)
	errs := make([]error, trainWorkers)
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < trainWorkers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			if tcr != nil {
				logs[k] = &exchangeLog{}
				w := &tracedWorker{cfg: &cfg, id: k, tr: trs[k], tcr: tcr, log: logs[k]}
				losses[k], errs[k] = w.run(share)
				return
			}
			m := &meter{Transport: trs[k], limit: share}
			logs[k] = &m.log
			res, err := trainer.RunWorkerLoop(cfg, k, m)
			if err != nil {
				errs[k] = err
				return
			}
			for _, p := range res.Loss.Points() {
				losses[k] = append(losses[k], p.Y)
			}
		}(k)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	ep.attempted = steps
	measureTraining(ep, spec, start, logs, losses)
	for k, tr := range trs {
		if err := drain(tr, k); err != nil {
			return nil, err
		}
	}
	if err := checkFixpoint(ep, "server", st.pusher.(capturer)); err != nil {
		return nil, err
	}
	ep.failed += st.failures()
	ep.countServer(st.pusher.Stats(), logs)
	return ep, nil
}

// measureTraining merges the workers' steps into the order they ended and
// derives the end-to-end numbers: the step rate after warm-up, the exchange
// latencies, and the time and wire bytes to the loss target.
func measureTraining(ep *episode, spec *trainSpec, start time.Time, logs []*exchangeLog, losses [][]float64) {
	type stepRef struct {
		end    time.Time
		worker int
		i      int
	}
	var steps []stepRef
	for k, l := range logs {
		if len(losses[k]) != len(l.stepEnd) {
			ep.fail("worker %d reported %d losses for %d steps", k, len(losses[k]), len(l.stepEnd))
			return
		}
		for i, end := range l.stepEnd {
			steps = append(steps, stepRef{end, k, i})
		}
		ep.latency = append(ep.latency, l.latency[warmupSteps/len(logs):]...)
	}
	sort.Slice(steps, func(a, b int) bool { return steps[a].end.Before(steps[b].end) })
	ep.measured = steps[len(steps)-1].end.Sub(start)
	ep.stepsPerS = rateAfterWarmup(logs)

	sum, trailing := 0.0, math.Inf(1)
	bytesBy := make([]int64, len(logs)) // each worker's wire bytes as of its latest merged step
	for n, s := range steps {
		sum += losses[s.worker][s.i]
		bytesBy[s.worker] = logs[s.worker].stepBytes[s.i]
		if n >= spec.window {
			old := steps[n-spec.window]
			sum -= losses[old.worker][old.i]
		}
		if n+1 < spec.window {
			continue
		}
		trailing = sum / float64(spec.window)
		if ep.stepsToTarget == 0 && trailing <= spec.target {
			ep.stepsToTarget = n + 1
			ep.timeToTarget = s.end.Sub(start).Seconds()
			for _, b := range bytesBy {
				ep.bytesToTarget += float64(b)
			}
		}
	}
	ep.attempted++
	if ep.stepsToTarget == 0 {
		ep.fail("trailing-%d loss never reached %.2f in %d steps (ended at %.3f)", spec.window, spec.target, len(steps), trailing)
	}
	ep.attempted++
	if math.IsNaN(trailing) || trailing > spec.target {
		ep.fail("final trailing-%d loss %.3f above the ceiling %.2f", spec.window, trailing, spec.target)
	}
}
