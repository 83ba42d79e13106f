package sparse

import "fmt"

// Chunk is the sparse content of one layer: parallel index/value arrays in
// ascending index order (COO format, as in the paper's encode()).
type Chunk struct {
	// Layer is the parameter index within the model.
	Layer int
	// Idx holds element positions within the layer, ascending.
	Idx []int32
	// Val holds the corresponding values.
	Val []float32
}

// NNZ returns the number of stored values.
func (c *Chunk) NNZ() int { return len(c.Val) }

// Update is a sparse model update: one chunk per layer that has any nonzero
// content. It is what travels between worker and server in both directions.
type Update struct {
	Chunks []Chunk
}

// NNZ returns the total stored values across chunks.
func (u *Update) NNZ() int {
	n := 0
	for i := range u.Chunks {
		n += u.Chunks[i].NNZ()
	}
	return n
}

// NextChunk extends u by one chunk and returns the new slot, resurrecting
// any previous backing arrays through the slice capacity. Together with
// GatherInto it lets callers assemble updates into retained scratch without
// allocating: Chunks = Chunks[:0], then NextChunk per layer.
func (u *Update) NextChunk() *Chunk {
	if len(u.Chunks) < cap(u.Chunks) {
		u.Chunks = u.Chunks[:len(u.Chunks)+1]
	} else {
		u.Chunks = append(u.Chunks, Chunk{})
	}
	return &u.Chunks[len(u.Chunks)-1]
}

// Gather extracts the values of x at the given indices into a chunk. Test
// seam: the tests of several packages cut their chunks with it.
func Gather(layer int, x []float32, idx []int32) Chunk {
	val := make([]float32, len(idx))
	for i, j := range idx {
		val[i] = x[j]
	}
	ic := make([]int32, len(idx))
	copy(ic, idx)
	return Chunk{Layer: layer, Idx: ic, Val: val}
}

// Scatter adds scale*chunk into dst (dst[idx] += scale*val).
func Scatter(c *Chunk, dst []float32, scale float32) {
	for i, j := range c.Idx {
		dst[j] += scale * c.Val[i]
	}
}

// Validate checks structural invariants: ascending in-range indices and
// matching slice lengths. layerSizes may be nil to skip the range check.
func (u *Update) Validate(layerSizes []int) error {
	for ci := range u.Chunks {
		c := &u.Chunks[ci]
		if len(c.Idx) != len(c.Val) {
			return fmt.Errorf("sparse: chunk %d (layer %d) has %d indices but %d values", ci, c.Layer, len(c.Idx), len(c.Val))
		}
		if layerSizes != nil {
			if c.Layer < 0 || c.Layer >= len(layerSizes) {
				return fmt.Errorf("sparse: chunk %d references layer %d of %d", ci, c.Layer, len(layerSizes))
			}
		}
		prev := int32(-1)
		for _, j := range c.Idx {
			if j <= prev {
				return fmt.Errorf("sparse: chunk %d (layer %d) indices not strictly ascending at %d", ci, c.Layer, j)
			}
			if layerSizes != nil && int(j) >= layerSizes[c.Layer] {
				return fmt.Errorf("sparse: chunk %d (layer %d) index %d out of range %d", ci, c.Layer, j, layerSizes[c.Layer])
			}
			prev = j
		}
	}
	return nil
}
