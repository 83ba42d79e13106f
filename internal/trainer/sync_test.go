package trainer

import (
	"slices"
	"testing"

	"dgs/internal/nn"
	"dgs/internal/tensor"
)

// syncConfig is quickConfig at the per-worker batch the synchronous runs
// use.
func syncConfig(m Method, workers int) Config {
	cfg := quickConfig(m, workers)
	cfg.BatchSize = 16
	return cfg
}

// syncMethods are the synchronous baselines, by the names the sync rows of
// the sync-vs-async experiment give them.
var syncMethods = []struct {
	name string
	m    Method
}{{"SSGD", MSGD}, {"GD", GDAsync}, {"DGC", DGCAsync}}

func TestSyncMethodsLearn(t *testing.T) {
	for _, s := range syncMethods {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			res, err := RunSync(syncConfig(s.m, 4))
			if err != nil {
				t.Fatal(err)
			}
			if res.FinalAccuracy < 0.75 {
				t.Fatalf("%s accuracy %.3f", s.name, res.FinalAccuracy)
			}
			first := res.Loss.Points()[0].Y
			if res.Loss.Last().Y >= first {
				t.Fatalf("%s loss did not decrease", s.name)
			}
		})
	}
}

// Synchronous training with identical replicas is deterministic: two runs
// with the same seed produce the same loss series and traffic.
func TestSyncDeterministic(t *testing.T) {
	a, err := RunSync(syncConfig(GDAsync, 3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSync(syncConfig(GDAsync, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.Loss.Points(), b.Loss.Points()) || a.FinalAccuracy != b.FinalAccuracy ||
		a.BytesUp != b.BytesUp || a.BytesDown != b.BytesDown {
		t.Fatalf("sync runs differ: accuracy %.4f vs %.4f, bytes %d/%d vs %d/%d",
			a.FinalAccuracy, b.FinalAccuracy, a.BytesUp, a.BytesDown, b.BytesUp, b.BytesDown)
	}
}

// SSGD with one worker is plain momentum SGD.
func TestSSGDSingleWorker(t *testing.T) {
	res, err := RunSync(syncConfig(MSGD, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.8 {
		t.Fatalf("single-worker SSGD accuracy %.3f", res.FinalAccuracy)
	}
}

func TestSparseUploadSmallerThanDense(t *testing.T) {
	dense, err := RunSync(syncConfig(MSGD, 4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := syncConfig(GDAsync, 4)
	cfg.KeepRatio = 0.01
	sp, err := RunSync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sp.AvgUpBytes*5 > dense.AvgUpBytes {
		t.Fatalf("GD upload %.0f B should be <20%% of SSGD's %.0f B", sp.AvgUpBytes, dense.AvgUpBytes)
	}
	// The sync broadcast stays bounded: at most workers×k coordinates.
	if sp.AvgDownBytes > dense.AvgDownBytes {
		t.Fatalf("GD broadcast %.0f B exceeds dense broadcast %.0f B", sp.AvgDownBytes, dense.AvgDownBytes)
	}
}

func TestSyncBadConfigs(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Workers = 0 },
		func(c *Config) { c.Epochs = 0 },
		func(c *Config) { c.BuildModel = nil },
		func(c *Config) { c.Dataset = nil },
		func(c *Config) { c.Method = GDAsync; c.KeepRatio = 0 },
		func(c *Config) { c.Method = DGCAsync; c.Momentum = 0 },
		func(c *Config) { c.TCPAddr = "127.0.0.1:0" },
		func(c *Config) { c.Codec = "sbc" },
		func(c *Config) { c.WeightDecay = 1e-4 },
	}
	for i, mut := range cases {
		cfg := syncConfig(MSGD, 2)
		mut(&cfg)
		if _, err := RunSync(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// Every replica applies the same averaged update after every barrier, so
// after a run all replicas hold bitwise the same parameters, and those are
// no longer θ0.
func TestReplicasStayInSync(t *testing.T) {
	cfg := syncConfig(GDAsync, 3)
	cfg.Epochs = 1
	var replicas []*nn.Model
	build := cfg.BuildModel
	cfg.BuildModel = func(rng *tensor.RNG) *nn.Model {
		m := build(rng)
		replicas = append(replicas, m)
		return m
	}
	if _, err := RunSync(cfg); err != nil {
		t.Fatal(err)
	}
	if len(replicas) != 3 {
		t.Fatalf("built %d models, want one per worker", len(replicas))
	}
	theta0 := build(tensor.NewRNG(cfg.Seed)).Params()
	moved := false
	for i, p := range replicas[0].Params() {
		for k, r := range replicas[1:] {
			if !slices.Equal(r.Params()[i].Value.Data, p.Value.Data) {
				t.Fatalf("replica %d differs from replica 0 in layer %d", k+1, i)
			}
		}
		moved = moved || !slices.Equal(p.Value.Data, theta0[i].Value.Data)
	}
	if !moved {
		t.Fatal("the replicas never left θ0")
	}
}
