// Package sparse implements Top-k gradient sparsification: per-layer
// threshold selection (paper Algorithm 1 line 7: "thr ← R% of |r|"),
// sparse chunk representation, and a compact binary wire codec for
// exchanging sparse updates between workers and the parameter server.
package sparse

import (
	"math"
	"slices"
)

// KForRatio returns the number of elements to keep for a layer of n
// elements at sparsification ratio R (keep fraction). The paper's R=1 means
// "top 1%": ratio = 0.01. At least one element is always kept for non-empty
// layers so progress is never fully blocked.
func KForRatio(n int, ratio float64) int {
	if n == 0 {
		return 0
	}
	k := int(float64(n) * ratio)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// Rank maps a value to its selection magnitude: |v|, with NaN promoted to
// +Inf. NaN payloads sort first (and deterministically, by index) instead of
// leaving the comparator without a total order, so a selection never
// depends on how NaNs happen to be laid out. A NaN gradient coordinate is
// already a diverged run; shipping it first surfaces the divergence instead
// of hiding it.
func Rank(v float32) float32 {
	if v != v {
		return float32(math.Inf(1))
	}
	if v < 0 {
		return -v
	}
	return v
}

// Selection order. Every Top-k in the repo picks the first k elements of one
// total order: descending Rank, ties broken by ascending coordinate. An
// element's place in that order is a single integer, its composite:
//
//	bits 62..32  absMask ^ key, where key = min(Float32bits(v) & absMask,
//	             infBits) is the IEEE-754 magnitude of v as an integer —
//	             monotone in Rank, ±0 → 0, NaN clamped onto +Inf exactly as
//	             Rank does — so a larger magnitude is a smaller composite
//	bits 31..0   the coordinate: the position in the layer
//
// so "a sorts before b" is composite(a) < composite(b), and the selected set
// is {composite ≤ the k-th smallest composite}: a Cut.
const (
	absMask = 0x7fffffff
	infBits = 0x7f800000

	// The composite is consumed most-significant digit first, histDigit bits
	// at a time: 12 bits of the magnitude part is the 8 exponent bits plus 4
	// of mantissa (16 buckets per octave), which leaves around 1 % of a
	// gradient-shaped layer in the bucket that holds the threshold, while
	// the 16 KiB of counters stay L1-resident.
	compositeBits = 63
	histDigit     = 12
	topShift      = compositeBits - histDigit

	// ExactCap is the most composites the exact stage resolves by
	// quickselect; a layer (or a histogram bucket) no larger than this
	// skips further histogram passes.
	ExactCap = 1024

	// bucketKeys is the width of one top-digit bucket in magnitude bits:
	// 1/16 of an octave, a factor of 2^(1/16) ≈ 1.044 in |v|.
	bucketKeys = 1 << (topShift - 32)
)

// orderKey is the magnitude half of the composite.
func orderKey(v float32) uint32 {
	key := math.Float32bits(v) & absMask
	if key > infBits {
		key = infBits
	}
	return absMask ^ key
}

func composite(v float32, ord int32) uint64 {
	return uint64(orderKey(v))<<32 | uint64(uint32(ord))
}

// Cut is a selection boundary in the total order: an element is selected iff
// it sorts at or before the k-th element. The zero Cut selects nothing.
type Cut struct {
	last uint64 // composite of the k-th element
	key  uint32 // its magnitude key; nothing smaller is selected
}

// Keeps reports whether value v at coordinate ord is selected. One integer
// compare rejects the unselected bulk; only values at or above the boundary
// magnitude (NaN bit patterns included) pay for the exact composite.
func (c Cut) Keeps(v float32, ord int32) bool {
	return math.Float32bits(v)&absMask >= c.key && composite(v, ord) <= c.last
}

// Rank returns the selection threshold in Rank space: the magnitude of the
// k-th element (+Inf if it is NaN).
func (c Cut) Rank() float32 { return math.Float32frombits(c.key) }

// Hist counts elements by the top digit of their composite. A caller that
// already walks a layer (optim's momentum/accumulate pass) feeds it through
// Add so selection costs no extra pass for the first histogram level.
type Hist [1 << histDigit]uint32

// Add counts one value. A nil Hist (Selector.Begin on a small layer) counts
// nothing, so callers fuse one loop for every layer size.
func (h *Hist) Add(v float32) {
	if h != nil {
		h[orderKey(v)>>(topShift-32)&(1<<histDigit-1)]++
	}
}

// AddZeros counts n zero values at once: a caller that knows a run of the
// layer is zero (ps's version-clean blocks) need not walk it.
func (h *Hist) AddZeros(n int) {
	if h != nil {
		h[orderKey(0)>>(topShift-32)&(1<<histDigit-1)] += uint32(n)
	}
}

// Selector is reusable Top-k scratch: the digit histogram, up to
// max(k, ExactCap) composites for the exact stage, and the k selected
// positions — O(buckets + k), never O(layer). The zero
// value is ready to use; after the first call on a layer its capacity is
// retained, so steady-state selection allocates nothing. A Selector is not
// safe for concurrent use.
type Selector struct {
	hist  *Hist
	begun bool
	cand  []uint64
	out   []int32

	// floor is the warm-start floor Floor reports, set by every resolved
	// boundary; warm says one has been.
	floor uint32
	warm  bool
}

// Begin starts a selection over n values whose first histogram pass the
// caller performs itself: Add every value to the returned Hist, then call
// Cut with those same values. It returns nil when n is small enough for the
// exact stage alone.
func (s *Selector) Begin(n int) *Hist {
	if n <= ExactCap {
		return nil
	}
	s.begun = true
	return s.resetHist()
}

func (s *Selector) resetHist() *Hist {
	if s.hist == nil {
		s.hist = new(Hist)
	}
	*s.hist = Hist{}
	return s.hist
}

// Cut returns the boundary selecting the min(k, len(val)) first elements of
// the total order, k ≥ 1 and val non-empty; val[i] sits at coordinate i.
// Linear time: each histogram level is one pass
// over val that narrows the boundary's bucket by histDigit bits; once the
// bucket fits the exact stage its composites are compacted and resolved by
// quickselect. Gradient-shaped layers usually finish after one level (an
// accumulation that piles up just under its own threshold can need two);
// only heavy ties (an all-zero layer) descend further, through the
// coordinate bits.
func (s *Selector) Cut(val []float32, k int) Cut {
	r := min(k, len(val))   // 1-based place of the boundary within the bucket
	fit := max(r, ExactCap) // the exact stage's scratch stays O(k)
	var prefix uint64       // the bucket: composites with c>>shift == prefix
	shift := uint(compositeBits)
	begun := s.begun
	s.begun = false
	if len(val) > ExactCap {
		h := s.hist
		if !begun {
			h = s.resetHist()
			for _, v := range val {
				h.Add(v)
			}
		}
		for {
			width := min(shift, histDigit)
			shift -= width
			d, before := 0, 0
			for before+int(h[d]) < r {
				before += int(h[d])
				d++
			}
			r -= before
			prefix = prefix<<width | uint64(d)
			if int(h[d]) <= fit || shift == 0 {
				break
			}
			// Next level: histogram the following digit of this bucket.
			*h = Hist{}
			next := shift - min(shift, histDigit)
			mask := uint64(1)<<(shift-next) - 1
			lo, span := keyRange(prefix, shift)
			for i, v := range val {
				if math.Float32bits(v)&absMask-lo <= span {
					if c := composite(v, int32(i)); c>>shift == prefix {
						h[c>>next&mask]++
					}
				}
			}
		}
	}
	if need := min(len(val), fit); cap(s.cand) < need {
		s.cand = make([]uint64, 0, need) // all a bucket can hold: never regrown mid-run
	}
	s.cand = s.cand[:0]
	lo, span := keyRange(prefix, shift)
	for i, v := range val {
		if math.Float32bits(v)&absMask-lo <= span {
			if c := composite(v, int32(i)); c>>shift == prefix {
				s.cand = append(s.cand, c)
			}
		}
	}
	return s.resolve(r)
}

// Floor returns the magnitude bits (Float32bits(v) & 0x7fffffff) one
// top-digit histogram bucket (≈4.4 % of |v|) below the last boundary this
// Selector resolved, and false before it has resolved one. A caller that
// selects from the same layer every step, as optim's rules do, counts the
// coordinates at or above it while it writes the layer; when there are at
// least k of them and not too many, CutCandidates over just those finds the
// exact boundary.
func (s *Selector) Floor() (floor uint32, ok bool) { return s.floor, s.warm }

// CutCandidates returns the Cut that Cut(val, k) would return for the whole
// layer, given only its candidates: the coordinates idx, ascending, with
// their values val, of every element whose magnitude bits are at or above
// some floor, at least k of them. Every element that sorts at or before the
// k-th then has a candidate's magnitude, so the k-th composite of the
// candidates is the layer's: it is Cut over the candidates as a layer of
// their own, and because idx ascends, a candidate's position in val orders
// ties as its coordinate does and the boundary's position translates to its
// coordinate. Scratch is O(len(idx)).
func (s *Selector) CutCandidates(idx []int32, val []float32, k int) Cut {
	cut := s.Cut(val, k)
	cut.last = cut.last>>32<<32 | uint64(uint32(idx[uint32(cut.last)]))
	return cut
}

// resolve selects the r-th (1-based) smallest composite of s.cand as the
// boundary and records the floor below it for the next selection.
func (s *Selector) resolve(r int) Cut {
	last := selectNth(s.cand, r-1)
	cut := Cut{last: last, key: absMask ^ uint32(last>>32)}
	s.floor, s.warm = cut.key-min(cut.key, bucketKeys), true
	return cut
}

// keyRange returns the raw magnitude bits (Float32bits & absMask, before the
// NaN clamp) that composites of the bucket c>>shift == prefix can carry, as
// lo and hi−lo for a single unsigned compare. It is a cheap superset filter:
// once shift reaches into the coordinate bits the bucket's composites share
// one key but not every composite with that key is in the bucket.
func keyRange(prefix uint64, shift uint) (lo, span uint32) {
	first := uint32(prefix << shift >> 32)
	final := uint32(((prefix+1)<<shift - 1) >> 32)
	lo, hi := absMask^final, absMask^first
	if hi >= infBits {
		hi = absMask // NaN bit patterns clamp onto +Inf
	}
	return lo, hi - lo
}

// selectNth returns the r-th smallest (0-based) element of a, reordering a.
func selectNth(a []uint64, r int) uint64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		// Median-of-three pivot, Hoare partition.
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[lo], a[mid] = a[mid], a[lo]
		}
		if a[hi] < a[lo] {
			a[lo], a[hi] = a[hi], a[lo]
		}
		if a[hi] < a[mid] {
			a[mid], a[hi] = a[hi], a[mid]
		}
		p := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case r <= j:
			hi = j
		case r >= i:
			lo = i
		default:
			return a[r]
		}
	}
	return a[r]
}

// TopK returns the indices of the k largest |x| values in ascending order,
// with deterministic tie-breaks (lower index wins). x is not modified. The
// returned slice aliases the selector's scratch and is valid until the next
// call on this Selector.
func (s *Selector) TopK(x []float32, k int) []int32 {
	if k <= 0 || len(x) == 0 {
		return nil
	}
	cut := s.Cut(x, k)
	s.out = slices.Grow(s.out[:0], min(k, len(x)))
	for i, v := range x {
		if cut.Keeps(v, int32(i)) {
			s.out = append(s.out, int32(i))
		}
	}
	return s.out
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
