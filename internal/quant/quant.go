// Package quant implements the compression extension the paper's
// conclusion proposes combining with DGS: TernGrad-style ternary
// quantization (Wen et al., NeurIPS 2017) applied to the sparse values,
// registered as wire codec 1.
package quant

import (
	"dgs/internal/sparse"
	"dgs/internal/tensor"
)

// ternValue is the per-coordinate TernGrad rule shared by TernarizeChunk
// and the ternary wire codec's Quantize: keep v at magnitude s with
// probability |v|/s (unbiased, E[q] = v), else round to zero. Exactly one
// RNG draw is consumed per call, so both callers see the same stream.
func ternValue(v, s float32, rng sparse.ValueRNG) float32 {
	p := v / s // in [-1,1]
	neg := p < 0
	if neg {
		p = -p
	}
	if rng.Float32() < p {
		if neg {
			return -s
		}
		return s
	}
	return 0
}

// TernarizeChunk quantizes a chunk's values to {−s, 0, +s} where s is the
// max |value|, using stochastic rounding so the quantization is unbiased:
// E[q_i] = v_i. It returns the quantized chunk (indices shared) and the
// scale. Dropped (rounded-to-zero) coordinates are removed, so ternarized
// updates compress even further.
func TernarizeChunk(c *sparse.Chunk, rng *tensor.RNG) (sparse.Chunk, float32) {
	var s float32
	for _, v := range c.Val {
		a := v
		if a < 0 {
			a = -a
		}
		if a > s {
			s = a
		}
	}
	out := sparse.Chunk{Layer: c.Layer}
	if s == 0 {
		return out, 0
	}
	for i, v := range c.Val {
		if q := ternValue(v, s, rng); q != 0 {
			out.Idx = append(out.Idx, c.Idx[i])
			out.Val = append(out.Val, q)
		}
	}
	return out, s
}

// TernarizeUpdate applies TernarizeChunk to every chunk of an update.
func TernarizeUpdate(u *sparse.Update, rng *tensor.RNG) sparse.Update {
	var out sparse.Update
	for i := range u.Chunks {
		q, s := TernarizeChunk(&u.Chunks[i], rng)
		if s == 0 || q.NNZ() == 0 {
			continue
		}
		out.Chunks = append(out.Chunks, q)
	}
	return out
}
