package quant

import (
	"math"
	"testing"

	"dgs/internal/sparse"
	"dgs/internal/tensor"
)

func TestTernarizeValuesAreTernary(t *testing.T) {
	rng := tensor.NewRNG(1)
	c := sparse.Chunk{Layer: 0, Idx: []int32{0, 1, 2, 3}, Val: []float32{1, -0.5, 0.25, -1}}
	q, s := TernarizeChunk(&c, rng)
	if s != 1 {
		t.Fatalf("scale = %v, want 1", s)
	}
	for _, v := range q.Val {
		if v != s && v != -s {
			t.Fatalf("value %v not in {−s, +s}", v)
		}
	}
}

func TestTernarizeUnbiased(t *testing.T) {
	// Mean of many stochastic quantizations must approach the true value.
	rng := tensor.NewRNG(2)
	const trials = 4000
	val := float32(0.3)
	var sum float64
	for i := 0; i < trials; i++ {
		c := sparse.Chunk{Layer: 0, Idx: []int32{0, 1}, Val: []float32{1, val}}
		q, _ := TernarizeChunk(&c, rng)
		for j, idx := range q.Idx {
			if idx == 1 {
				sum += float64(q.Val[j])
			}
		}
	}
	mean := sum / trials
	if math.Abs(mean-float64(val)) > 0.03 {
		t.Fatalf("quantization biased: mean %v, want %v", mean, val)
	}
}

func TestTernarizeZeroChunk(t *testing.T) {
	rng := tensor.NewRNG(3)
	c := sparse.Chunk{Layer: 0, Idx: []int32{0}, Val: []float32{0}}
	q, s := TernarizeChunk(&c, rng)
	if s != 0 || q.NNZ() != 0 {
		t.Fatal("all-zero chunk must quantize to empty")
	}
}

func TestTernarizeUpdatePreservesStructure(t *testing.T) {
	rng := tensor.NewRNG(4)
	u := sparse.Update{Chunks: []sparse.Chunk{
		{Layer: 0, Idx: []int32{1, 5}, Val: []float32{2, -2}},
		{Layer: 3, Idx: []int32{0}, Val: []float32{0}},
	}}
	q := TernarizeUpdate(&u, rng)
	if err := q.Validate([]int{10, 0, 0, 10}); err != nil {
		t.Fatal(err)
	}
	for i := range q.Chunks {
		if q.Chunks[i].Layer == 3 {
			t.Fatal("zero chunk should be dropped entirely")
		}
	}
}
