package trainer

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dgs/internal/checkpoint"
	"dgs/internal/ps"
	"dgs/internal/sparse"
	"dgs/internal/tensor"
	"dgs/internal/transport"
)

// gatedSession holds its worker at a step barrier: the submit after the
// first hold ones waits for gate to close. The crash-recovery test uses it
// to keep every worker mid-run until the server is gone — a worker's steps
// take a fraction of a checkpoint's fsync, so left alone the run can finish
// before the kill condition is ever met and the kill lands on nobody.
type gatedSession struct {
	transport.Pipeliner
	done, hold int
	gate       <-chan struct{}
}

func (g *gatedSession) Submit(worker int, payload []byte) error {
	if g.done == g.hold {
		<-g.gate
	}
	g.done++
	return g.Pipeliner.Submit(worker, payload)
}

// The crash-recovery acceptance test: a pipelined (depth 2) multi-worker
// training run whose parameter server is kill-9'd mid-training and replaced
// by a fresh process restored from the latest asynchronous checkpoint on
// the same address. Workers must detect the restart (new incarnation),
// rejoin through resync, and training must complete, converge, and leave
// the restored server satisfying Eq. 5 (v_k == M after drain) — the state
// lost is bounded by one checkpoint interval.
func TestChaosServerKillRestartRecoversFromCheckpoint(t *testing.T) {
	cfg := quickConfig(DGS, 4)
	cfg.PipelineDepth = 2
	proto := cfg.BuildModel(tensor.NewRNG(cfg.Seed))
	sizes := proto.LayerSizes()
	psCfg := ps.Config{LayerSizes: sizes, Workers: 4}

	server := ps.NewServer(psCfg)
	ep := serve(t, server)
	addr := ep.TCP.Addr()

	// Asynchronous checkpointer: off the push path, incremental via the
	// dirty-block stamps, fsync'd atomically to dir.
	dir := t.TempDir()
	wtr := &checkpoint.Writer{Dir: dir, Keep: 3}
	capState := server.NewCaptureState()
	var written atomic.Int64
	stopCkpt := make(chan struct{})
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopCkpt:
				return
			case <-tick.C:
				if _, err := server.Capture(capState); err != nil {
					t.Errorf("capture: %v", err)
					return
				}
				if _, err := wtr.Write(capState); err != nil {
					t.Errorf("checkpoint write: %v", err)
					return
				}
				written.Add(1)
			}
		}
	}()

	// Workers: plain session stacks (no injected link faults — the fault
	// under test is the server crash) with a generous retry budget to ride
	// out the restart window. Each holds after holdAt of its 64 steps until
	// the server has been killed, so the kill condition below is met with
	// every worker still owing steps, whatever a step costs.
	const holdAt = 20
	killed := make(chan struct{})
	f := newFleet(DialOptions{
		Addr: addr, Pipeline: cfg.PipelineDepth, Timeout: 10 * time.Second,
		Retries: 100, Backoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond,
	})
	defer f.close()

	var wg sync.WaitGroup
	results := make([]*Result, 4)
	errs := make([]error, 4)
	for id := 0; id < 4; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			dial := func() (transport.Pipeliner, error) {
				return &gatedSession{Pipeliner: keepOpen{f.session(id)}, hold: holdAt, gate: killed}, nil
			}
			results[id], errs[id] = RunResilientWorkerLoop(cfg, id, dial, 5)
		}(id)
	}

	// The kill: wait until training is genuinely under way AND at least one
	// checkpoint is durable, then SIGKILL-style teardown — close the
	// listener, drop every connection and discard the server object
	// entirely. Nothing in memory survives. Only then are the workers let
	// go: each finds its server gone with most of its steps still to do.
	for server.Stats().Pushes < 60 || written.Load() < 1 {
		time.Sleep(2 * time.Millisecond)
	}
	close(stopCkpt)
	<-ckptDone
	ep.TCP.Close()
	killT := server.Timestamp()
	server, ep = nil, nil
	close(killed)

	// The restart: recover from the latest on-disk checkpoint, fresh
	// middleware (new incarnation), same address.
	st2, path, err := checkpoint.LoadLatest(dir)
	if err != nil {
		t.Fatalf("load latest checkpoint: %v", err)
	}
	server2, err := ps.RestoreServer(psCfg, st2)
	if err != nil {
		t.Fatalf("restore from %s: %v", path, err)
	}
	if got := server2.Timestamp(); got == 0 || got > killT {
		t.Fatalf("restored timestamp %d outside (0, %d]: checkpoint is not a past state", got, killT)
	}
	ep2, err := Serve(server2, ServeOptions{Addr: addr, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	defer ep2.TCP.Close()

	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", id, err)
		}
	}

	// Convergence despite losing up to one checkpoint interval of pushes.
	if acc := results[0].FinalAccuracy; acc < 0.6 {
		t.Fatalf("final accuracy %.3f after crash-recovery; training diverged", acc)
	}

	// Every worker rejoined the restored server as a fresh incarnation.
	if ss := ep2.Sessions.Stats(); ss.Hellos < 4 {
		t.Fatalf("restored server adopted %d hellos, want ≥4 (every worker rejoins)", ss.Hellos)
	}
	if st := server2.Stats(); st.Resyncs < 4 {
		t.Fatalf("restored server resynced %d times, want ≥4", st.Resyncs)
	}

	// Eq. 5 on the restored server: after drain, v_k == M bitwise.
	requireDrainedFixpoint(t, f, server2, sizes, 4)
}

// Overload backpressure end-to-end: a parameter server admitting only one
// push at a time sheds concurrent workers with RetryAfter frames; the
// workers' retry stacks back off and re-send, every worker finishes, and
// the exactly-once accounting stays intact (Eq. 5 after drain).
func TestChaosOverloadedServerShedsAndRecovers(t *testing.T) {
	cfg := quickConfig(DGS, 4)
	proto := cfg.BuildModel(tensor.NewRNG(cfg.Seed))
	sizes := proto.LayerSizes()
	server := ps.NewServer(ps.Config{LayerSizes: sizes, Workers: 4})
	eo, err := ExactlyOnceHandlerWithCodec(server, "mirror")
	if err != nil {
		t.Fatal(err)
	}
	// The one stack Serve does not build: a deliberately slow apply path
	// inside the gate widens the admission window so the four workers
	// actually collide (the toy model's compute would
	// otherwise dwarf the push service time).
	slow := func(worker int, payload []byte) ([]byte, error) {
		time.Sleep(300 * time.Microsecond)
		return eo.Handle(worker, payload)
	}
	gate := transport.NewGate(slow, 1)
	gate.RetryHint = time.Millisecond
	srv, err := transport.ListenTCP("127.0.0.1:0", gate.Handle)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetExchangeTimeout(20 * time.Second)
	defer srv.Close()

	f := newFleet(DialOptions{
		Addr: srv.Addr(), Timeout: 10 * time.Second,
		Retries: 200, Backoff: 100 * time.Microsecond, MaxBackoff: 2 * time.Millisecond,
	})
	defer f.close()

	var wg sync.WaitGroup
	results := make([]*Result, 4)
	errs := make([]error, 4)
	for id := 0; id < 4; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			results[id], errs[id] = RunResilientWorkerLoop(cfg, id, f.dialer(id, -1), 3)
		}(id)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", id, err)
		}
	}

	gs := gate.Stats()
	if gs.RejectedOverload == 0 {
		t.Fatal("no overload rejections — 4 workers against MaxInflight=1 must collide")
	}
	if gs.Admitted == 0 {
		t.Fatal("gate admitted nothing")
	}
	if acc := results[0].FinalAccuracy; acc < 0.6 {
		t.Fatalf("final accuracy %.3f under backpressure; training diverged", acc)
	}

	// A shed push must never have touched the server: exactly-once holds.
	requireDrainedFixpoint(t, f, server, sizes, 4)
}

// Graceful drain against live traffic: Drain stops admission, in-flight
// pushes finish, and the final checkpoint taken after Drain returns
// satisfies Eq. 5-adjacent consistency — it restores to a server whose
// state exactly matches the drained original.
func TestChaosGracefulDrainFinalCheckpoint(t *testing.T) {
	cfg := quickConfig(DGS, 2)
	proto := cfg.BuildModel(tensor.NewRNG(cfg.Seed))
	sizes := proto.LayerSizes()
	psCfg := ps.Config{LayerSizes: sizes, Workers: 2}
	server := ps.NewServer(psCfg)
	ep, err := Serve(server, ServeOptions{Addr: "127.0.0.1:0", DrainHint: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.TCP.Close()

	// Two workers push continuously in the background.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for id := 0; id < 2; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tr, err := NewDialStack(DialOptions{Addr: ep.TCP.Addr(), Backoff: time.Millisecond, Timeout: 10 * time.Second})()
			if err != nil {
				t.Errorf("worker %d dial: %v", id, err)
				return
			}
			defer tr.Close()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := tr.Exchange(id, trainPushPayload(sizes, id, i)); err != nil {
					var ra *transport.RetryAfterError
					if errors.As(err, &ra) {
						return // drained: the server told us to go away
					}
					t.Errorf("worker %d push: %v", id, err)
					return
				}
				i++
			}
		}(id)
	}

	for server.Stats().Pushes < 40 {
		time.Sleep(time.Millisecond)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ep.Gate.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	close(stop)
	wg.Wait()

	// Post-drain final checkpoint: restoring it yields a server whose next
	// exchanges are bitwise-identical to the original's — no in-flight push
	// was torn off mid-apply.
	capState := server.NewCaptureState()
	if _, err := server.Capture(capState); err != nil {
		t.Fatal(err)
	}
	st2, err := checkpoint.Decode(checkpoint.Encode(capState))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := ps.RestoreServer(psCfg, st2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Timestamp(), server.Timestamp(); got != want {
		t.Fatalf("restored timestamp %d != drained server's %d", got, want)
	}
	m1, m2 := snapshotBuffer(sizes), snapshotBuffer(sizes)
	server.MSnapshot(m1)
	restored.MSnapshot(m2)
	for layer := range m1 {
		for j := range m1[layer] {
			if m1[layer][j] != m2[layer][j] {
				t.Fatalf("M[%d][%d] %v != restored %v", layer, j, m1[layer][j], m2[layer][j])
			}
		}
	}
}

// trainPushPayload builds a tiny deterministic sparse push for layer 0,
// varying with i so successive pushes touch different coordinates.
func trainPushPayload(sizes []int, id, i int) []byte {
	idx := int32((id*31 + i*7) % sizes[0])
	return sparse.Encode(&sparse.Update{Chunks: []sparse.Chunk{{
		Layer: 0,
		Idx:   []int32{idx},
		Val:   []float32{float32(i%5) * 0.01},
	}}})
}
