package sparse

import "sort"

// Block-version helpers for dirty-range diff tracking (ps.Server): a layer
// of n elements is divided into fixed 2^shift-element blocks, and each block
// carries the logical timestamp of the last sparse apply that touched it.
// A reader that synchronised at timestamp s only needs to visit blocks whose
// version exceeds s — for sparse update streams that is a small fraction of
// the model, which turns a full-model scan into an O(changed) one.

// DefaultBlockShift gives 1024-element blocks, the coarsest AutoBlockShift
// ever picks: the version array is negligible (one uint64 per 4 KiB of
// parameters). Only servers with Eq. 6 secondary compression still tune up
// to it — see PlainBlockShift and AutoBlockShift.
const DefaultBlockShift = 10

// PlainBlockShift caps the auto-tuned block of a server without secondary
// compression at 64 elements: four cache lines, one embedding row. A plain
// gather re-reads every dirty block of M and of v_k in full, so a block
// wider than what a push actually touches multiplies the gather's memory
// traffic by the ratio (16x on row-clustered embedding pushes at 1024).
// The version arrays then cost one uint64 per 256 B, about 3 % of M and of
// each v_k.
const PlainBlockShift = 6

// NumBlocks returns how many 2^shift-element blocks cover n elements.
func NumBlocks(n int, shift uint) int {
	if n <= 0 {
		return 0
	}
	return (n + (1 << shift) - 1) >> shift
}

// BlockSpan returns the [lo, hi) element range of block b within a layer of
// n elements.
func BlockSpan(b int, shift uint, n int) (lo, hi int) {
	lo = b << shift
	hi = lo + (1 << shift)
	if hi > n {
		hi = n
	}
	return lo, hi
}

// AutoBlockShift is the one rule that picks a dirty-tracking block shift
// when the configuration leaves it open (ps.Config.BlockShift == 0), from
// the model's layer-size distribution and the downward path: the largest
// shift at which the median layer still spans at least 64 blocks, floored
// at 2 and capped at PlainBlockShift — or, for a server with secondary
// compression, at DefaultBlockShift. Models dominated by small layers (a
// CNN's conv kernels) get blocks fine enough that dirty tracking can skip
// anything at all; large layers get 64-element blocks on the plain path,
// where a block is pure re-read cost, and up to 1024 on the secondary
// path, whose gather visits every block in each of its two passes and is
// measurably slower at 64 elements on dense Top-k pushes (DESIGN.md §6,
// §9). A checkpoint records the
// shift it was taken at and a restore adopts it, so the rule is free to
// differ between the server that wrote a checkpoint and the one reading it.
func AutoBlockShift(sizes []int, secondary bool) uint {
	limit := uint(PlainBlockShift)
	if secondary {
		limit = DefaultBlockShift
	}
	if len(sizes) == 0 {
		return limit
	}
	sorted := append([]int(nil), sizes...)
	sort.Ints(sorted)
	med := sorted[len(sorted)/2]
	if len(sorted)%2 == 0 {
		med = (sorted[len(sorted)/2-1] + sorted[len(sorted)/2]) / 2
	}
	shift := uint(2)
	for shift < limit && med>>(shift+1) >= 64 {
		shift++
	}
	return shift
}

// MarkBlocks stamps the blocks containing the given (ascending) element
// indices with version stamp. Runs of indices inside one block collapse to a
// single store, so the cost is O(distinct blocks), not O(nnz).
func MarkBlocks(ver []uint64, idx []int32, stamp uint64, shift uint) {
	last := -1
	for _, j := range idx {
		b := int(j) >> shift
		if b != last {
			ver[b] = stamp
			last = b
		}
	}
}
