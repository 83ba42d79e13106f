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

// oracleTopKList is the pre-kernel Selector.TopKList.
func oracleTopKList(val []float32, gidx []int32, k int) ([]int32, float32) {
	n := len(val)
	if k <= 0 || n == 0 {
		return nil, 0
	}
	pos := oracleFill(n)
	byCoord := func(p []int32) {
		sort.Slice(p, func(a, b int) bool { return gidx[p[a]] < gidx[p[b]] })
	}
	if k >= n {
		thr := Rank(val[0])
		for i := 1; i < n; i++ {
			if r := Rank(val[i]); r < thr {
				thr = r
			}
		}
		byCoord(pos)
		return pos, thr
	}
	oracleQuickselectList(val, gidx, pos, k)
	thr := Rank(val[pos[k-1]])
	top := pos[:k]
	byCoord(top)
	return top, thr
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

func oracleLessList(val []float32, gidx []int32, a, b int32) bool {
	av, bv := Rank(val[a]), Rank(val[b])
	if av != bv {
		return av > bv
	}
	return gidx[a] < gidx[b]
}

func oracleQuickselectList(val []float32, gidx []int32, pos []int32, k int) {
	lo, hi := 0, len(pos)-1
	for lo < hi {
		p := oraclePartitionList(val, gidx, pos, lo, hi)
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

func oraclePartitionList(val []float32, gidx []int32, pos []int32, lo, hi int) int {
	mid := lo + (hi-lo)/2
	if oracleLessList(val, gidx, pos[mid], pos[lo]) {
		pos[lo], pos[mid] = pos[mid], pos[lo]
	}
	if oracleLessList(val, gidx, pos[hi], pos[lo]) {
		pos[lo], pos[hi] = pos[hi], pos[lo]
	}
	if oracleLessList(val, gidx, pos[hi], pos[mid]) {
		pos[mid], pos[hi] = pos[hi], pos[mid]
	}
	pivot := pos[mid]
	pos[mid], pos[hi] = pos[hi], pos[mid]
	store := lo
	for i := lo; i < hi; i++ {
		if oracleLessList(val, gidx, pos[i], pivot) {
			pos[i], pos[store] = pos[store], pos[i]
			store++
		}
	}
	pos[store], pos[hi] = pos[hi], pos[store]
	return store
}
