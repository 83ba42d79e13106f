package nn

import (
	"testing"

	"dgs/internal/tensor"
)

// trainStepCases are the two models the end-to-end benchmark trains, at its
// batch sizes (benchmark/workloads.go: mlp_dgs / mlp_dual_pipe, resnet_dgs).
var trainStepCases = []struct {
	name  string
	build func(rng *tensor.RNG) *Model
	shape []int
	batch int
}{
	{"mlp", func(rng *tensor.RNG) *Model { return NewMLP(rng, 64, 512, 512, 64) }, []int{64, 64}, 64},
	{"resnets", func(rng *tensor.RNG) *Model { return NewResNetS(rng, DefaultResNetS(10)) }, []int{8, 3, 16, 16}, 8},
}

// trainStep is the nn.fwd_bwd stage of a worker step, exactly as
// trainer.runWorker and benchmark/worker.go run it.
func trainStep(m *Model, x *tensor.Tensor, labels []int) (float64, [][]float32) {
	m.ZeroGrad()
	logits := m.Forward(x, true)
	loss, g := SoftmaxCrossEntropy(logits, labels)
	m.Backward(g)
	return loss, m.Gradients()
}

func trainStepFixture(i int) (*Model, *tensor.Tensor, []int) {
	c := trainStepCases[i]
	rng := tensor.NewRNG(uint64(61 + i))
	m := c.build(rng)
	x := tensor.New(c.shape...)
	rng.FillNormal(x.Data, 0, 1)
	labels := make([]int, c.batch)
	for j := range labels {
		labels[j] = rng.Intn(10)
	}
	return m, x, labels
}

var benchSink float64

// BenchmarkTrainStep reports ns/op, B/op and allocs/op of one
// ZeroGrad + Forward + loss + Backward + Gradients on the benchmark's models.
func BenchmarkTrainStep(b *testing.B) {
	for i, c := range trainStepCases {
		b.Run(c.name, func(b *testing.B) {
			m, x, labels := trainStepFixture(i)
			trainStep(m, x, labels) // size the layer buffers
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				loss, _ := trainStep(m, x, labels)
				benchSink += loss
			}
		})
	}
}
