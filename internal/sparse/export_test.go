package sparse

// Helpers the tests of this package, and of package sparse_test, share:
// allocating forms of the reusable production paths and the reference
// sparsifiers the wire and merge tests build their inputs with.

// Merge is the allocating convenience form of MergeInto.
func Merge(srcs []*Update) *Update {
	var m Merger
	dst := &Update{}
	m.MergeInto(dst, srcs)
	return dst
}

// GatherInto fills c with the values of x at idx, reusing c's backing
// storage so steady-state gathers allocate nothing. Like Gather, the index
// slice is copied, so idx may be scratch owned by the caller.
func GatherInto(c *Chunk, layer int, x []float32, idx []int32) {
	c.Layer = layer
	c.Idx = append(c.Idx[:0], idx...)
	if cap(c.Val) < len(idx) {
		c.Val = make([]float32, len(idx))
	}
	c.Val = c.Val[:len(idx)]
	for i, j := range idx {
		c.Val[i] = x[j]
	}
}

// SparsifyLayers selects the top keepRatio fraction of each layer of x by
// absolute value and returns the sparse update. x is not modified.
func SparsifyLayers(x [][]float32, keepRatio float64) Update {
	var u Update
	for layer, lx := range x {
		k := KForRatio(len(lx), keepRatio)
		if k == 0 {
			continue
		}
		idx := TopKIndices(lx, k)
		u.Chunks = append(u.Chunks, Gather(layer, lx, idx))
	}
	return u
}

// DenseUpdate converts per-layer dense slices into an Update containing
// every element (used when sparsification is disabled, R=100%).
func DenseUpdate(x [][]float32) Update {
	var u Update
	for layer, lx := range x {
		if len(lx) == 0 {
			continue
		}
		idx := make([]int32, len(lx))
		for i := range idx {
			idx[i] = int32(i)
		}
		val := make([]float32, len(lx))
		copy(val, lx)
		u.Chunks = append(u.Chunks, Chunk{Layer: layer, Idx: idx, Val: val})
	}
	return u
}

// Decode parses a raw frame into a fresh Update.
func Decode(b []byte) (*Update, error) {
	u := &Update{}
	if err := DecodeInto(u, b); err != nil {
		return nil, err
	}
	return u, nil
}

// TopKIndices returns the indices of the k largest |x| values.
// Ties are broken deterministically (lower index wins). The returned
// indices are in ascending order. x is not modified.
//
// Each call allocates fresh scratch; hot paths that select every iteration
// should hold a Selector instead.
func TopKIndices(x []float32, k int) []int32 {
	var s Selector
	return s.TopK(x, k)
}
