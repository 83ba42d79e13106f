package sparse_test

import (
	"bytes"
	"testing"

	"dgs/internal/sparse"
	"dgs/internal/tensor"
)

// quantSources builds worker-style updates, runs them through a lossy wire
// codec (quantize → encode → decode), and returns the decoded updates — the
// exact values an aggregator would merge.
func quantSources(t *testing.T, name string, rng *tensor.RNG, sizes []int, n int) []*sparse.Update {
	t.Helper()
	codec, err := sparse.CodecByName(name)
	if err != nil {
		t.Fatalf("codec %s: %v", name, err)
	}
	q, ok := codec.(sparse.Quantizer)
	if !ok {
		t.Fatalf("codec %s is not a Quantizer", name)
	}
	srcs := make([]*sparse.Update, n)
	for s := range srcs {
		raw := &sparse.Update{}
		var sel sparse.Selector
		for layer, ln := range sizes {
			x := make([]float32, ln)
			rng.FillNormal(x, 0, 1)
			idx := sel.TopK(x, sparse.KForRatio(ln, 0.25))
			sparse.GatherInto(raw.NextChunk(), layer, x, idx)
		}
		var quantized, e sparse.Update
		q.Quantize(&quantized, raw, &e)
		frame := q.AppendEncode(nil, &quantized)
		dec := &sparse.Update{}
		if err := sparse.DecodeAnyInto(dec, frame); err != nil {
			t.Fatalf("codec %s: decode: %v", name, err)
		}
		srcs[s] = dec
	}
	return srcs
}

// Quantized inputs: frames produced by the lossy wire codec decode to exact
// float values (the quantization already happened worker-side); the
// aggregator merges those decoded values, and the result must be canonical,
// deterministic, and equal to an order-preserving dense-accumulator
// reference — SBC's per-worker ±μ points collide on shared coordinates.
func TestMergeQuantizedInputs(t *testing.T) {
	rng := tensor.NewRNG(44)
	sizes := []int{4096, 128}
	const name = "sbc"
	srcs := quantSources(t, name, rng, sizes, 4)
	got := sparse.Merge(srcs)
	if err := got.Validate(sizes); err != nil {
		t.Fatalf("codec %s: merged update not canonical: %v", name, err)
	}

	// Order-preserving dense reference: same left-to-right per-coordinate
	// float chain as the merger, so equality is bitwise.
	dense := make([][]float32, len(sizes))
	hit := make([][]bool, len(sizes))
	for i, n := range sizes {
		dense[i] = make([]float32, n)
		hit[i] = make([]bool, n)
	}
	for _, u := range srcs {
		for i := range u.Chunks {
			c := &u.Chunks[i]
			for j, ix := range c.Idx {
				dense[c.Layer][ix] += c.Val[j]
				hit[c.Layer][ix] = true
			}
		}
	}
	for i := range got.Chunks {
		c := &got.Chunks[i]
		for j, ix := range c.Idx {
			if !hit[c.Layer][ix] {
				t.Fatalf("codec %s: coordinate (%d,%d) not in the union", name, c.Layer, ix)
			}
			hit[c.Layer][ix] = false // consumed: duplicates would refail
			if c.Val[j] != dense[c.Layer][ix] {
				t.Fatalf("codec %s: (%d,%d) = %v, want %v", name, c.Layer, ix, c.Val[j], dense[c.Layer][ix])
			}
		}
	}
	for layer := range hit {
		for ix, h := range hit[layer] {
			if h {
				t.Fatalf("codec %s: union coordinate (%d,%d) missing from merge", name, layer, ix)
			}
		}
	}

	if !bytes.Equal(sparse.Encode(got), sparse.Encode(sparse.Merge(srcs))) {
		t.Fatalf("codec %s: merge not reproducible", name)
	}
}
