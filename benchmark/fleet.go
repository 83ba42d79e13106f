package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dgs/internal/agg"
	"dgs/internal/ps"
	"dgs/internal/replica"
	"dgs/internal/sparse"
	"dgs/internal/tensor"
	"dgs/internal/transport"
)

// fleetSpec is one fleet workload: sixteen logical workers pushing
// pre-generated embedding updates at a parameter server, with no model
// code on the client side at all.
type fleetSpec struct {
	// viaAgg routes every worker through one aggregator (window 16).
	viaAgg bool
	// reader attaches a read replica (poll 10 ms, raw codec) and samples
	// how stale its readers are at 20 Hz, beside the writes.
	reader bool
}

// Embed geometry (the one internal/bench/server.go measures): four
// embedding tables; a push updates 64 whole rows of 64 elements, so it
// touches a small block-aligned slice of a large model.
const (
	embedTables      = 4
	embedTableSize   = 1 << 19
	embedRowWidth    = 64
	embedRowsPerPush = 64

	// Sixteen connections is the least that gives each worker's difference
	// fifteen other pushes to skip over; two goroutines, one per core,
	// generate all of the load, each owning eight sessions.
	fleetWorkers     = 16
	fleetGenerators  = 2
	generatorSpanID  = 1000 // worker id on a generator's own round spans
	fleetVariants    = 16   // pre-generated pushes each worker cycles through
	fleetWindow      = 5 * time.Second
	fleetTargetPush  = 1024 // the fleet's target: this many pushes delivered
	readerEvery      = 50 * time.Millisecond
	readerPoll       = 200 * time.Microsecond
	replicaPollEvery = 10 * time.Millisecond
)

func embedSizes() []int {
	sizes := make([]int, embedTables)
	for i := range sizes {
		sizes[i] = embedTableSize
	}
	return sizes
}

// embedFrames pre-generates and pre-encodes every worker's pushes, so the
// generators only move bytes. Element 0 of table 0 is the push counter:
// every push carries −1 there and no row update touches row 0 of that
// table, so M[0][0] is exactly the number of pushes the model holds —
// which is how readers and the output checks tell which pushes a copy of
// the model has seen.
func embedFrames(seed uint64) [][][]byte {
	rng := tensor.NewRNG(seed)
	rowsPerTable := embedTableSize / embedRowWidth
	out := make([][][]byte, fleetWorkers)
	for k := range out {
		out[k] = make([][]byte, fleetVariants)
		for v := range out[k] {
			picked := map[[2]int]bool{}
			for len(picked) < embedRowsPerPush {
				table, row := rng.Intn(embedTables), rng.Intn(rowsPerTable)
				if table == 0 && row == 0 {
					continue
				}
				picked[[2]int{table, row}] = true
			}
			perTable := make([][]int, embedTables)
			for tr := range picked {
				perTable[tr[0]] = append(perTable[tr[0]], tr[1])
			}
			var u sparse.Update
			for table, rows := range perTable {
				if len(rows) == 0 && table != 0 {
					continue
				}
				sort.Ints(rows)
				c := u.NextChunk()
				c.Layer = table
				if table == 0 {
					c.Idx = append(c.Idx, 0)
				}
				for _, r := range rows {
					for j := 0; j < embedRowWidth; j++ {
						c.Idx = append(c.Idx, int32(r*embedRowWidth+j))
					}
				}
				c.Val = make([]float32, len(c.Idx))
				rng.FillNormal(c.Val, 0, 0.01)
				if table == 0 {
					c.Val[0] = -1
				}
			}
			out[k][v] = sparse.Encode(&u)
		}
	}
	return out
}

// fleetSession is one logical worker: its own connection and session.
type fleetSession struct {
	id     int
	pipe   transport.Pipeliner
	frames [][]byte
	log    exchangeLog
}

// fleetRun is the state the generators, the reader and the target watcher
// share during one measured window.
type fleetRun struct {
	tcr      *tracer
	acked    atomic.Int64 // pushes acknowledged so far
	wire     atomic.Int64 // payload bytes up + down so far
	targetAt atomic.Int64 // unix nanos at which the target was met
	targetB  atomic.Int64 // wire bytes at the target-th acknowledgement
}

// generate is one generator goroutine's closed loop: submit a push on each
// of its sessions, await them all, repeat until the deadline.
func (r *fleetRun) generate(gen int, mine []*fleetSession, deadline time.Time, visibleAtAck bool) error {
	for round := 0; ; round++ {
		t0 := time.Now()
		if t0.After(deadline) {
			return nil
		}
		for _, s := range mine {
			frame := s.frames[round%len(s.frames)]
			ts := time.Now()
			if err := s.pipe.Submit(s.id, frame); err != nil {
				return fmt.Errorf("worker %d submit: %w", s.id, err)
			}
			s.log.submitted(ts, round, len(frame))
			if r.tcr != nil {
				r.tcr.record(spanSubmit, spanStep, s.id, round, ts, time.Now())
			}
		}
		for _, s := range mine {
			ts := time.Now()
			resp, err := s.pipe.Await()
			if err != nil {
				return fmt.Errorf("worker %d await: %w", s.id, err)
			}
			te := time.Now()
			sent, _ := s.log.awaited(te, len(resp))
			s.log.stepDone(te)
			if r.tcr != nil {
				r.tcr.record(spanAwait, spanStep, s.id, round, ts, te)
				r.tcr.record(spanExchange, "", s.id, round, sent, te)
			}
			wire := r.wire.Add(int64(len(s.frames[round%len(s.frames)]) + len(resp)))
			if r.acked.Add(1) == fleetTargetPush {
				r.targetB.Store(wire)
				if visibleAtAck {
					r.targetAt.Store(te.UnixNano())
				}
			}
		}
		if r.tcr != nil {
			r.tcr.record(spanStep, "", generatorSpanID+gen, round, t0, time.Now())
		}
	}
}

// pushesSeen reads the push counter out of a replica reader's snapshot.
func pushesSeen(rep *replica.Replica, rs *replica.ReaderState, tcr *tracer, step int) int64 {
	t0 := time.Now()
	model, _, _ := rep.Snapshot(rs)
	if tcr != nil {
		tcr.record(spanSnapshot, "", fleetWorkers, step, t0, time.Now())
	}
	return int64(model[0][0])
}

// read is the open-loop 20 Hz reader. At each tick it notes how many
// pushes the generators have had acknowledged and waits until a snapshot
// of the replica holds at least that many; the lag is timed from the
// tick's due time, so a stalled tick charges its delay to the lag.
func (r *fleetRun) read(rep *replica.Replica, start, deadline time.Time) (lag, late []time.Duration, err error) {
	rs := rep.NewReaderState()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * readerEvery)
		if due.After(deadline) {
			return lag, late, nil
		}
		time.Sleep(time.Until(due))
		late = append(late, time.Since(due))
		want := r.acked.Load()
		for pushesSeen(rep, rs, r.tcr, k) < want {
			if time.Since(due) > exchangeTimeout {
				return nil, nil, fmt.Errorf("reader: replica still behind push %d after %v", want, exchangeTimeout)
			}
			time.Sleep(readerPoll)
		}
		lag = append(lag, time.Since(due))
	}
}

// watchTarget records when a reader at the replica first sees the
// target-th push: the moment the fleet's target is met on a workload
// whose model is read through a replica.
func (r *fleetRun) watchTarget(rep *replica.Replica, stop <-chan struct{}) {
	rs := rep.NewReaderState()
	for r.acked.Load() < fleetTargetPush || pushesSeen(rep, rs, nil, 0) < fleetTargetPush {
		select {
		case <-stop:
			return
		case <-time.After(readerPoll):
		}
	}
	r.targetAt.Store(time.Now().UnixNano())
}

// runFleetEpisode sets up the server (and aggregator or replica), dials
// sixteen worker sessions over loopback TCP, drives them for one window
// and checks the outputs.
func runFleetEpisode(spec *fleetSpec, seed uint64, tcr *tracer) (*episode, error) {
	runtime.GC()
	ep := &episode{counts: map[string]float64{}}
	t0 := time.Now()
	frames := embedFrames(seed)
	sizes := embedSizes()

	serverWorkers, readerSlot := fleetWorkers, -1
	handlerParent := spanExchange
	switch {
	case spec.viaAgg:
		serverWorkers, handlerParent = 1, spanAgg
	case spec.reader:
		serverWorkers, readerSlot = fleetWorkers+1, fleetWorkers
	}
	st, err := newStack(ps.Config{LayerSizes: sizes, Workers: serverWorkers}, 1,
		serverTrace{tr: tcr, parent: handlerParent, reader: readerSlot})
	if err != nil {
		return nil, err
	}
	defer st.lis.Close()
	srv := st.pusher.(*ps.Server)
	addr := st.lis.Addr()

	var tier *agg.Aggregator
	if spec.viaAgg {
		tier, err = agg.New(agg.Config{
			LayerSizes: sizes, MaxWorkers: fleetWorkers, Window: fleetWorkers, UpstreamWorker: 0,
			Dial: func() (transport.MuxLink, error) { return transport.DialMux(st.lis.Addr()) },
		})
		if err != nil {
			return nil, err
		}
		defer tier.Close()
		h := tier.Handler()
		if tcr != nil {
			h = traceHandler(h, spanAgg, serverTrace{tr: tcr, parent: spanExchange, reader: -1}, newStepSeq(fleetWorkers))
		}
		tierLis, err := transport.ListenTCP("127.0.0.1:0", h)
		if err != nil {
			return nil, err
		}
		defer tierLis.Close()
		addr = tierLis.Addr()
	}
	var rep *replica.Replica
	if spec.reader {
		rep, err = replica.New(replica.Config{
			LayerSizes: sizes, Worker: readerSlot, PollInterval: replicaPollEvery,
			Dial: replica.DialStack(st.lis.Addr(), exchangeTimeout, dialRetries, dialBackoff, dialMaxBackoff),
		})
		if err != nil {
			return nil, err
		}
		defer rep.Close()
	}

	sessions := make([]*fleetSession, fleetWorkers)
	defer func() {
		for _, s := range sessions {
			if s != nil {
				s.pipe.Close()
			}
		}
	}()
	for k := range sessions {
		tr, err := dialWorker(addr, k, 2)
		if err != nil {
			return nil, err
		}
		sessions[k] = &fleetSession{id: k, pipe: tr.(transport.Pipeliner), frames: frames[k]}
	}
	ep.setup = time.Since(t0)

	run := &fleetRun{tcr: tcr}
	start := time.Now()
	deadline := start.Add(fleetWindow)
	errs := make([]error, fleetGenerators+1)
	stopWatch := make(chan struct{})
	var wg, watch sync.WaitGroup
	per := fleetWorkers / fleetGenerators
	for g := 0; g < fleetGenerators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = run.generate(g, sessions[g*per:(g+1)*per], deadline, rep == nil)
		}(g)
	}
	if rep != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep.lag, ep.late, errs[fleetGenerators] = run.read(rep, start, deadline)
		}()
		watch.Add(1)
		go func() {
			defer watch.Done()
			run.watchTarget(rep, stopWatch)
		}()
	}
	wg.Wait()
	close(stopWatch)
	watch.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	logs := make([]*exchangeLog, fleetWorkers)
	for k, s := range sessions {
		logs[k] = &s.log
		ep.latency = append(ep.latency, s.log.latency[warmupSteps/fleetWorkers:]...)
	}
	pushes := int(run.acked.Load())
	ep.measured = fleetWindow
	ep.attempted = pushes
	ep.stepsPerS = rateAfterWarmup(logs)
	ep.attempted++
	if at := run.targetAt.Load(); at == 0 {
		ep.fail("push %d was not delivered within the %v window (%d pushes acknowledged)", fleetTargetPush, fleetWindow, pushes)
	} else {
		ep.stepsToTarget = fleetTargetPush
		ep.timeToTarget = time.Unix(0, at).Sub(start).Seconds()
		ep.bytesToTarget = float64(run.targetB.Load())
	}

	// Output checks, on the drained topology.
	for _, s := range sessions {
		if err := drain(s.pipe, s.id); err != nil {
			return nil, err
		}
	}
	want := allocLayers(sizes)
	got := allocLayers(sizes)
	if rep != nil {
		ctx, cancel := context.WithTimeout(context.Background(), exchangeTimeout)
		err := rep.Sync(ctx)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("replica sync: %w", err)
		}
		srv.MSnapshot(want)
		rep.MSnapshot(got)
		sameModel(ep, "server model and replica mirror", want, got)
		rs := rep.Stats()
		ep.counts["replica.polls"] = float64(rs.Polls)
		ep.counts["replica.applied_coords"] = float64(rs.AppliedCoords)
		ep.counts["replica.rebases"] = float64(rs.Rebases)
		ep.failed += int(rs.Resyncs)
	}
	if err := checkFixpoint(ep, "server", srv); err != nil {
		return nil, err
	}
	srv.MSnapshot(want)
	ep.attempted++
	if applied := int(want[0][0]); applied != pushes {
		ep.fail("server model holds %d pushes, generators had %d acknowledged", applied, pushes)
	}
	if tier != nil {
		if err := checkFixpoint(ep, "aggregator mirror", tier.Mirror()); err != nil {
			return nil, err
		}
		tier.Mirror().MSnapshot(got)
		sameModel(ep, "server model and aggregator mirror", want, got)
		as, ss := tier.Stats(), srv.Stats()
		ep.attempted++
		if ss.Pushes != as.Windows {
			ep.fail("server applied %d pushes, aggregator forwarded %d windows", ss.Pushes, as.Windows)
		}
		ep.counts["agg.windows"] = float64(as.Windows)
		ep.counts["agg.parts"] = float64(as.Parts)
		ep.counts["agg.shared_frames"] = float64(as.SharedFrames)
		ep.counts["agg.encoded_frames"] = float64(as.EncodedFrames)
		down, gs := tier.Sessions(), tier.GateStats()
		ep.failed += int(down.Replays+down.StaleRejected+down.BadSeq+gs.RejectedOverload+gs.RejectedDrain) + int(as.UpstreamResets)
	}
	ep.failed += st.failures()
	ep.countServer(srv.Stats(), logs)
	return ep, nil
}

// rateAfterWarmup is completed steps per second over the window that opens
// when the warm-up steps have ended and closes when the first worker runs
// out of steps, all workers' steps merged.
func rateAfterWarmup(logs []*exchangeLog) float64 {
	var ends []time.Time
	var windowEnd time.Time
	for _, l := range logs {
		ends = append(ends, l.stepEnd...)
		if last := l.stepEnd[len(l.stepEnd)-1]; windowEnd.IsZero() || last.Before(windowEnd) {
			windowEnd = last
		}
	}
	sort.Slice(ends, func(a, b int) bool { return ends[a].Before(ends[b]) })
	windowStart := ends[warmupSteps-1]
	n := sort.Search(len(ends), func(i int) bool { return ends[i].After(windowEnd) }) - warmupSteps
	return float64(n) / windowEnd.Sub(windowStart).Seconds()
}
