package dgs

import (
	"testing"
)

// fastConfig keeps public-API tests quick: MLP on the Gaussian mixture.
func fastConfig(m Method) Config {
	return Config{
		Method:    m,
		Workers:   3,
		Model:     ModelMLP,
		Dataset:   DatasetMixture,
		Epochs:    3,
		BatchSize: 32,
		KeepRatio: 0.05,
		EvalLimit: 256,
	}
}

func TestTrainDefaultsAndLearning(t *testing.T) {
	res, err := Train(fastConfig(DGS))
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.7 {
		t.Fatalf("accuracy %.3f; mixture should be learnable", res.FinalAccuracy)
	}
	if len(res.Loss.Points()) == 0 {
		t.Fatal("loss series empty")
	}
	if res.Iterations == 0 || res.BytesUp == 0 {
		t.Fatal("run statistics missing")
	}
}

func TestAllPublicMethodsRun(t *testing.T) {
	for _, m := range Methods {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			t.Parallel()
			cfg := fastConfig(m)
			cfg.Epochs = 2
			res, err := Train(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Method != m {
				t.Fatalf("result method %v, want %v", res.Method, m)
			}
		})
	}
}

func TestMethodNames(t *testing.T) {
	want := map[Method]string{
		MSGD: "MSGD", ASGD: "ASGD", GDAsync: "GD-async",
		DGCAsync: "DGC-async", DGS: "DGS",
	}
	for m, name := range want {
		if m.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), name)
		}
	}
}

func TestModelDatasetMismatchRejected(t *testing.T) {
	cfg := fastConfig(DGS)
	cfg.Model = ModelResNetS // image model on vector data
	if _, err := Train(cfg); err == nil {
		t.Fatal("ResNetS on vector data must be rejected")
	}
	cfg = fastConfig(DGS)
	cfg.Dataset = DatasetCIFARLike
	cfg.Model = ModelMLP // vector model on image data
	if _, err := Train(cfg); err == nil {
		t.Fatal("MLP on image data must be rejected")
	}
}

func TestUnknownKindsRejected(t *testing.T) {
	cfg := fastConfig(DGS)
	cfg.Dataset = DatasetKind(99)
	if _, err := Train(cfg); err == nil {
		t.Fatal("unknown dataset must be rejected")
	}
	cfg = fastConfig(DGS)
	cfg.Model = ModelKind(99)
	if _, err := Train(cfg); err == nil {
		t.Fatal("unknown model must be rejected")
	}
}

func TestDataScaleShrinksRun(t *testing.T) {
	small := fastConfig(ASGD)
	small.DataScale = 0.25
	small.Epochs = 1
	res, err := Train(small)
	if err != nil {
		t.Fatal(err)
	}
	big := fastConfig(ASGD)
	big.Epochs = 1
	res2, err := Train(big)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= res2.Iterations {
		t.Fatalf("DataScale=0.25 ran %d iters vs %d at full scale", res.Iterations, res2.Iterations)
	}
}

func TestSpiralsWithMLP(t *testing.T) {
	cfg := Config{
		Method:  DGS,
		Workers: 2,
		Model:   ModelMLP,
		Dataset: DatasetSpirals,
		Epochs:  10, BatchSize: 32, KeepRatio: 0.1, EvalLimit: 256,
	}
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Spirals are genuinely hard for a small MLP under sparse async
	// updates, and run-to-run interleaving varies: require a clear margin
	// over chance (1/3) rather than a high bar.
	if res.FinalAccuracy < 0.40 {
		t.Fatalf("spirals accuracy %.3f; want above chance (0.33) with margin", res.FinalAccuracy)
	}
}
