package trainer

import (
	"sync"
	"testing"

	"dgs/internal/ps"
	"dgs/internal/tensor"
	"dgs/internal/transport"
)

// Multi-process deployment path: a standalone TCP parameter server with
// independent RunWorkerLoop workers, exactly as `dgs server` and
// `dgs worker` wire things up.
func TestRunWorkerLoopAgainstStandaloneServer(t *testing.T) {
	cfg := quickConfig(DGS, 2)
	proto := cfg.BuildModel(tensor.NewRNG(cfg.Seed))
	server := ps.NewServer(ps.Config{LayerSizes: proto.LayerSizes(), Workers: 2})
	srv, err := transport.ListenTCP("127.0.0.1:0", ExactlyOnceHandler(server).Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

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

// The loop needs a Pipeliner; a plain Transport is refused up front.
func TestRunWorkerLoopRequiresPipeliner(t *testing.T) {
	cfg := quickConfig(DGS, 1)
	var tr transport.Transport = struct{ transport.Transport }{transport.NewLoopback(nil)}
	if _, err := RunWorkerLoop(cfg, 0, tr); err == nil {
		t.Fatal("a transport that cannot pipeline must be rejected")
	}
}

func TestTernaryTrainingStillLearns(t *testing.T) {
	cfg := quickConfig(DGS, 4)
	cfg.Ternary = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.6 {
		t.Fatalf("ternary-quantized DGS accuracy %.3f; should still learn", res.FinalAccuracy)
	}
	// Quantized updates must be smaller on the wire than plain DGS.
	plain, err := Run(quickConfig(DGS, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgUpBytes >= plain.AvgUpBytes {
		t.Fatalf("ternary up bytes %.0f should undercut plain %.0f", res.AvgUpBytes, plain.AvgUpBytes)
	}
}
