package main

import (
	"fmt"
	"time"

	"dgs/internal/data"
	"dgs/internal/nn"
	"dgs/internal/optim"
	"dgs/internal/sparse"
	"dgs/internal/tensor"
	"dgs/internal/trainer"
	"dgs/internal/transport"
)

// tracedWorker is the traced pass's worker loop. It calls the same public
// functions in the same order as the production loop (trainer.worker.run,
// and runPipelined at depth > 1) for a raw-codec DGS run with a constant
// learning rate, recording a span around each call; worker_test.go proves
// its loss series and byte totals bitwise equal to trainer.RunWorkerLoop's,
// so the stage budget describes the production loop.
type tracedWorker struct {
	cfg *trainer.Config
	id  int
	tr  transport.Transport
	tcr *tracer
	log *exchangeLog
}

// run executes steps worker steps and returns the per-step training loss.
func (w *tracedWorker) run(steps int) ([]float64, error) {
	cfg := w.cfg
	depth := cfg.PipelineDepth
	var pipe transport.Pipeliner
	if depth > 1 {
		var ok bool
		if pipe, ok = w.tr.(transport.Pipeliner); !ok {
			return nil, fmt.Errorf("worker %d: depth %d needs a native pipelined transport", w.id, depth)
		}
	}
	model := cfg.BuildModel(tensor.NewRNG(cfg.Seed))
	opt := optim.NewSAMomentum(model.LayerSizes(), cfg.Momentum, cfg.KeepRatio)
	loader := data.NewLoader(cfg.Dataset, cfg.BatchSize, cfg.Seed+uint64(1000+w.id), true)
	params := model.Params()
	var down sparse.Update
	// A submitted payload belongs to the transport until its Await, so each
	// in-flight exchange needs its own encode buffer.
	encBufs := make([][]byte, depth+1)
	encSlot := 0
	losses := make([]float64, 0, steps)

	apply := func(step int, resp []byte) error {
		t0 := time.Now()
		if err := sparse.DecodeAnyInto(&down, resp); err != nil {
			return fmt.Errorf("worker %d decode response: %w", w.id, err)
		}
		t1 := time.Now()
		for ci := range down.Chunks {
			c := &down.Chunks[ci]
			sparse.Scatter(c, params[c.Layer].Value.Data, 1)
		}
		t2 := time.Now()
		w.tcr.record(spanDecode, spanStep, w.id, step, t0, t1)
		w.tcr.record(spanScatter, spanStep, w.id, step, t1, t2)
		return nil
	}
	// await resolves the oldest in-flight exchange: the blocked time is the
	// communication not hidden behind compute.
	await := func(step int, parent string) error {
		t0 := time.Now()
		resp, err := pipe.Await()
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("worker %d await: %w", w.id, err)
		}
		w.tcr.record(spanAwait, parent, w.id, step, t0, t1)
		sent, sentStep := w.log.awaited(t1, len(resp))
		w.tcr.record(spanExchange, "", w.id, sentStep, sent, t1)
		return apply(step, resp)
	}

	for step := 0; step < steps; step++ {
		t0 := time.Now()
		batch := loader.Next()
		t1 := time.Now()
		model.ZeroGrad()
		logits := model.Forward(batch.X, true)
		loss, g := nn.SoftmaxCrossEntropy(logits, batch.Labels)
		model.Backward(g)
		t2 := time.Now()
		upd := opt.Prepare(model.Gradients(), cfg.LR)
		t3 := time.Now()
		payload := sparse.AppendEncode(encBufs[encSlot][:0], &upd)
		encBufs[encSlot] = payload
		encSlot = (encSlot + 1) % len(encBufs)
		t4 := time.Now()
		w.tcr.record(spanData, spanStep, w.id, step, t0, t1)
		w.tcr.record(spanFwdBwd, spanStep, w.id, step, t1, t2)
		w.tcr.record(spanPrepare, spanStep, w.id, step, t2, t3)
		w.tcr.record(spanEncode, spanStep, w.id, step, t3, t4)

		if pipe == nil {
			resp, err := w.tr.Exchange(w.id, payload)
			t5 := time.Now()
			if err != nil {
				return nil, fmt.Errorf("worker %d exchange: %w", w.id, err)
			}
			w.tcr.record(spanExchange, spanStep, w.id, step, t4, t5)
			w.log.submitted(t4, step, len(payload))
			w.log.awaited(t5, len(resp))
			if err := apply(step, resp); err != nil {
				return nil, err
			}
		} else {
			if err := pipe.Submit(w.id, payload); err != nil {
				return nil, fmt.Errorf("worker %d submit: %w", w.id, err)
			}
			t5 := time.Now()
			w.tcr.record(spanSubmit, spanStep, w.id, step, t4, t5)
			w.log.submitted(t4, step, len(payload))
			if pipe.InFlight() >= depth {
				if err := await(step, spanStep); err != nil {
					return nil, err
				}
			}
		}
		losses = append(losses, loss)
		end := time.Now()
		w.log.stepDone(end)
		w.tcr.record(spanStep, "", w.id, step, t0, end)
	}
	for pipe != nil && pipe.InFlight() > 0 {
		if err := await(steps, ""); err != nil {
			return nil, err
		}
	}
	return losses, nil
}
