package sparse

import "sort"

// The selection oracle: the index-array quickselect every Top-k in the repo
// ran before the histogram-select kernel replaced it, frozen here as the
// reference the kernel must match set-for-set. Its comparator — descending
// Rank, ties by ascending coordinate — is the definition of the order; the
// kernel's composite key is an encoding of it.

// oracleTopK is the pre-kernel Selector.TopK.
func oracleTopK(x []float32, k int) []int32 {
	n := len(x)
	if k <= 0 || n == 0 {
		return nil
	}
	idx := oracleFill(n)
	if k >= n {
		return idx
	}
	oracleQuickselect(x, idx, k)
	top := idx[:k]
	sort.Slice(top, func(a, b int) bool { return top[a] < top[b] })
	return top
}

func oracleFill(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

func oracleLess(x []float32, a, b int32) bool {
	av, bv := Rank(x[a]), Rank(x[b])
	if av != bv {
		return av > bv
	}
	return a < b
}

func oracleQuickselect(x []float32, idx []int32, k int) {
	lo, hi := 0, len(idx)-1
	for lo < hi {
		p := oraclePartition(x, idx, lo, hi)
		switch {
		case p == k-1:
			return
		case p < k-1:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

func oraclePartition(x []float32, idx []int32, lo, hi int) int {
	mid := lo + (hi-lo)/2
	if oracleLess(x, idx[mid], idx[lo]) {
		idx[lo], idx[mid] = idx[mid], idx[lo]
	}
	if oracleLess(x, idx[hi], idx[lo]) {
		idx[lo], idx[hi] = idx[hi], idx[lo]
	}
	if oracleLess(x, idx[hi], idx[mid]) {
		idx[mid], idx[hi] = idx[hi], idx[mid]
	}
	pivot := idx[mid]
	idx[mid], idx[hi] = idx[hi], idx[mid]
	store := lo
	for i := lo; i < hi; i++ {
		if oracleLess(x, idx[i], pivot) {
			idx[i], idx[store] = idx[store], idx[i]
			store++
		}
	}
	idx[store], idx[hi] = idx[hi], idx[store]
	return store
}
