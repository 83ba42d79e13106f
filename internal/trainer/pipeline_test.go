package trainer

import (
	"testing"

	"dgs/internal/ps"
	"dgs/internal/tensor"
	"dgs/internal/transport"
)

// Depth 0 and depth 1 are both the synchronous exchange, so a single-worker
// run (fully deterministic: no scheduler interleaving) must reproduce the
// baseline bit for bit. This is the guard that pipelining stays opt-in for
// the paper figures.
func TestPipelineDepthOneIsBitwiseIdentical(t *testing.T) {
	base, err := Run(quickConfig(DGS, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig(DGS, 1)
	cfg.PipelineDepth = 1
	depth1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.FinalAccuracy != depth1.FinalAccuracy {
		t.Fatalf("final accuracy %v vs %v; depth 1 must be bitwise identical", base.FinalAccuracy, depth1.FinalAccuracy)
	}
	bp, dp := base.Loss.Points(), depth1.Loss.Points()
	if len(bp) != len(dp) {
		t.Fatalf("loss series lengths differ: %d vs %d", len(bp), len(dp))
	}
	for i := range bp {
		if bp[i] != dp[i] {
			t.Fatalf("loss point %d differs: %+v vs %+v", i, bp[i], dp[i])
		}
	}
}

// Depth 2 over the in-process loopback, which runs the handler at Submit.
// The extra ≤1 step of client-side staleness must not break convergence on
// the easy mixture.
func TestPipelinedTrainingConverges(t *testing.T) {
	cfg := quickConfig(DGS, 4)
	cfg.PipelineDepth = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.7 {
		t.Fatalf("depth-2 accuracy %.3f", res.FinalAccuracy)
	}
	first := res.Loss.Points()[0].Y
	last := res.Loss.Last().Y
	if last >= first {
		t.Fatalf("depth-2 loss did not decrease: %.3f -> %.3f", first, last)
	}
}

// Depth 2 over real TCP sockets inside Run.
func TestPipelinedTrainingOverTCP(t *testing.T) {
	cfg := quickConfig(DGS, 3)
	cfg.TCPAddr = "127.0.0.1:0"
	cfg.PipelineDepth = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.7 {
		t.Fatalf("pipelined TCP run accuracy %.3f", res.FinalAccuracy)
	}
	if res.BytesUp == 0 || res.BytesDown == 0 {
		t.Fatal("TCP traffic not recorded")
	}
}

// The multi-process deployment path end to end: RunWorkerLoop over a native
// PipelinedSession (wire-v2 mux + session envelope) against an
// exactly-once server, including the drained-window final model sync.
func TestWorkerLoopOverPipelinedSession(t *testing.T) {
	cfg := quickConfig(DGS, 1)
	cfg.PipelineDepth = 2
	if err := cfg.normalise(); err != nil {
		t.Fatal(err)
	}
	proto := cfg.BuildModel(tensor.NewRNG(cfg.Seed))
	server := ps.NewServer(ps.Config{LayerSizes: proto.LayerSizes(), Workers: 1})
	ep := serve(t, server)

	ses := transport.NewPipelinedSession(func() (transport.MuxLink, error) {
		return transport.DialMux(ep.TCP.Addr())
	}, 2)
	defer ses.Close()
	res, err := RunWorkerLoop(cfg, 0, ses)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.7 {
		t.Fatalf("pipelined-session run accuracy %.3f", res.FinalAccuracy)
	}
	if ss := ep.Sessions.Stats(); ss.Hellos != 1 {
		t.Fatalf("stats %+v, want exactly one hello", ss)
	}
}

func TestPipelineDepthValidated(t *testing.T) {
	cfg := quickConfig(DGS, 2)
	cfg.PipelineDepth = -1
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative pipeline depth accepted")
	}
	cfg.PipelineDepth = transport.DefaultReplayWindow + 1
	if _, err := Run(cfg); err == nil {
		t.Fatal("pipeline depth beyond the replay window accepted; reconnect replay could not cover the in-flight frames")
	}
}
