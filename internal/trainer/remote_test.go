package trainer

import (
	"sync"
	"testing"

	"dgs/internal/tensor"
	"dgs/internal/transport"
)

// Multi-process deployment path: a standalone TCP parameter server with
// independent RunWorkerLoop workers, wired as `dgs server` and `dgs worker`
// wire them: NewServer from the run's Config, served through Serve, and
// NewDialStack sessions.
func TestRunWorkerLoopAgainstStandaloneServer(t *testing.T) {
	cfg := quickConfig(DGS, 2)
	proto := cfg.BuildModel(tensor.NewRNG(cfg.Seed))
	server, err := NewServer(&cfg, proto.LayerSizes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve(t, server).TCP

	var wg sync.WaitGroup
	results := make([]*Result, 2)
	errs := make([]error, 2)
	for id := 0; id < 2; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cli, err := NewDialStack(DialOptions{Addr: srv.Addr()})()
			if err != nil {
				errs[id] = err
				return
			}
			defer cli.Close()
			results[id], errs[id] = RunWorkerLoop(cfg, id, cli)
		}(id)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", id, err)
		}
	}
	if results[0].FinalAccuracy < 0.7 {
		t.Fatalf("worker 0 accuracy %.3f; distributed run should learn the mixture", results[0].FinalAccuracy)
	}
	if results[1].FinalAccuracy != 0 {
		t.Fatal("only worker 0 evaluates")
	}
	// Both workers processed their share of the budget.
	total := cfg.Epochs * cfg.Dataset.NumTrain() / cfg.BatchSize
	if results[0].Iterations != total/2 || results[1].Iterations != total/2 {
		t.Fatalf("iteration shares %d/%d, want %d each", results[0].Iterations, results[1].Iterations, total/2)
	}
	if got := server.Stats().Pushes; got < uint64(total) {
		t.Fatalf("server saw %d pushes, want >= %d", got, total)
	}
}

func TestRunWorkerLoopRejectsBadID(t *testing.T) {
	cfg := quickConfig(DGS, 2)
	lb := transport.NewLoopback(func(int, []byte) ([]byte, error) { return nil, nil })
	if _, err := RunWorkerLoop(cfg, 5, lb); err == nil {
		t.Fatal("out-of-range worker id must be rejected")
	}
	if _, err := RunWorkerLoop(cfg, -1, lb); err == nil {
		t.Fatal("negative worker id must be rejected")
	}
}
