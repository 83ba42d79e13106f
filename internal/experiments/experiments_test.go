package experiments

import (
	"strings"
	"testing"

	"dgs/internal/stats"
)

// The full experiment runners take minutes of training and are exercised by
// the repository-root benchmark harness (bench_test.go); unit tests here
// cover the cheap pieces: registry, report plumbing, smoothing, presets.

func TestRegistryHasEveryPaperArtefact(t *testing.T) {
	want := []string{
		"figure2", "figure3", "figure4", "figure5", "figure6",
		"table2", "table3", "table4", "table5", "memory", "ablations", "syncasync",
	}
	for _, id := range want {
		if _, ok := Registry[id]; !ok {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if len(Registry) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(Registry), len(want))
	}
}

func TestIDsSorted(t *testing.T) {
	ids := IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] < ids[i-1] {
			t.Fatalf("IDs not sorted: %v", ids)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("figure99", Short); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestTable5Renders(t *testing.T) {
	rep, err := Run("table5", Short)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{"ASGD", "GD-async", "DGC-async", "DGS", "SAMomentum"} {
		if !strings.Contains(rep.Text, method) {
			t.Errorf("table 5 missing %q", method)
		}
	}
	if rep.ID != "table5" {
		t.Fatalf("ID = %q", rep.ID)
	}
}

func TestSmoothedMovingAverage(t *testing.T) {
	s := stats.NewSeries("x")
	for i := 0; i < 6; i++ {
		s.Add(float64(i), float64(i))
	}
	sm := smoothed(s, 3)
	pts := sm.Points()
	// Point 0: mean(0)=0; point 2: mean(0,1,2)=1; point 5: mean(3,4,5)=4.
	if pts[0].Y != 0 || pts[2].Y != 1 || pts[5].Y != 4 {
		t.Fatalf("smoothed values wrong: %+v", pts)
	}
	if len(pts) != len(s.Points()) {
		t.Fatal("smoothing must preserve sample count")
	}
}

func TestSmoothedDegenerateWindow(t *testing.T) {
	s := stats.NewSeries("x")
	s.Add(0, 2)
	sm := smoothed(s, 0) // clamped to 1
	if sm.Points()[0].Y != 2 {
		t.Fatal("window<1 must behave as identity")
	}
}

func TestPresetsGeometry(t *testing.T) {
	for _, s := range []Scale{Short, Full} {
		c := cifarPreset(s)
		if c.ds.Classes() != 10 {
			t.Fatalf("cifar preset classes %d", c.ds.Classes())
		}
		if c.model.Classes != 10 {
			t.Fatal("model classes must match dataset")
		}
		i := imagenetPreset(s)
		if i.model.Classes != i.ds.Classes() {
			t.Fatal("imagenet model/dataset class mismatch")
		}
		if i.ds.Classes() <= c.ds.Classes() {
			t.Fatal("imagenet-like must have more classes than cifar-like")
		}
	}
	// Full scale must be strictly bigger.
	if cifarPreset(Full).ds.NumTrain() <= cifarPreset(Short).ds.NumTrain() {
		t.Fatal("full scale should enlarge the training set")
	}
}

func TestTable3WorkerSweep(t *testing.T) {
	short := table3Workers(Short)
	full := table3Workers(Full)
	if short[0] != 1 || full[len(full)-1] != 32 {
		t.Fatalf("sweeps wrong: %v %v", short, full)
	}
	if len(full) <= len(short) {
		t.Fatal("full sweep must extend the short sweep")
	}
}

func TestResNet18Constants(t *testing.T) {
	// 11.7M float32 params ≈ 46 MB: the paper's model footprint.
	if b := ResNet18Params * 4; b < 45e6 || b > 48e6 {
		t.Fatalf("ResNet-18 bytes %d outside the paper's ~46 MB", b)
	}
}
