package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"dgs/internal/tensor"
)

// checkTopKEquivalence asserts that the histogram-select kernel picks
// exactly what the frozen quickselect oracle picks for the layer x, through
// TopK, Cut with a split sweep and the warm form. sel is reused across
// calls on purpose: stale scratch must not leak between selections.
func checkTopKEquivalence(t testing.TB, sel *Selector, x []float32, k int) {
	t.Helper()
	want := oracleTopK(x, k)
	got := sel.TopK(x, k)
	if !slices.Equal(got, want) {
		t.Fatalf("TopK n=%d k=%d: kernel and oracle differ\n got  %v\n want %v", len(x), k, head(got), head(want))
	}

	// Split form, as ps's Eq. 6 gather drives it on a miss: Cut over the
	// layer, then Keeps over only the elements at or above the boundary's
	// magnitude, Float32bits(cut.Rank()).
	if k > 0 && len(x) > 0 {
		cut := sel.Cut(x, k)
		key := math.Float32bits(cut.Rank())
		var split []int32
		for i, v := range x {
			if math.Float32bits(v)&absMask >= key && cut.Keeps(v, int32(i)) {
				split = append(split, int32(i))
			}
		}
		if !slices.Equal(split, want) {
			t.Fatalf("split Cut n=%d k=%d: kernel and oracle differ\n got  %v\n want %v", len(x), k, head(split), head(want))
		}

		// Warm form, as optim drives it on the next step: the candidates at
		// or above a floor resolve the same selection whenever there are at
		// least k of them — at the floor this Cut left, one far below it
		// and 0.
		floor, _ := sel.Floor()
		for _, f := range []uint32{floor, floor / 2, 0} {
			checkCutCandidates(t, sel, x, k, f, want)
		}
	}
}

func checkCutCandidates(t testing.TB, sel *Selector, x []float32, k int, floor uint32, want []int32) {
	t.Helper()
	var idx []int32
	var val []float32
	for i, v := range x {
		if math.Float32bits(v)&absMask >= floor {
			idx, val = append(idx, int32(i)), append(val, v)
		}
	}
	if len(idx) < k {
		return
	}
	cut := sel.CutCandidates(idx, val, k)
	var warm []int32
	for j, i := range idx {
		if cut.Keeps(val[j], i) {
			warm = append(warm, i)
		}
	}
	if !slices.Equal(warm, want) {
		t.Fatalf("CutCandidates n=%d k=%d floor=%#x (%d candidates): kernel and oracle differ\n got  %v\n want %v",
			len(x), k, floor, len(idx), head(warm), head(want))
	}
}

func head(a []int32) []int32 {
	if len(a) > 16 {
		return a[:16]
	}
	return a
}

// equivalenceSizes straddle ExactCap: the exact stage alone, one histogram
// level, and (for heavy ties) the descent through every digit.
var equivalenceSizes = []int{1, 2, 7, 100, ExactCap, ExactCap + 1, 3*ExactCap + 5}

func TestTopKEquivalenceTable(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	denorm := math.Float32frombits(1) // smallest positive denormal
	negZero := math.Float32frombits(0x80000000)
	cases := []struct {
		name string
		gen  func(i, n int) float32
	}{
		{"all-equal", func(i, n int) float32 { return 0.25 }},
		{"all-equal-mixed-sign", func(i, n int) float32 { return float32(1-2*(i%2)) * 0.25 }},
		{"all-zero", func(i, n int) float32 { return 0 }},
		{"signed-zeros", func(i, n int) float32 {
			if i%3 == 0 {
				return negZero
			}
			return 0
		}},
		{"zeros-and-denormals", func(i, n int) float32 {
			switch i % 4 {
			case 0:
				return denorm
			case 1:
				return -2 * denorm
			case 2:
				return negZero
			}
			return 0
		}},
		{"infinities", func(i, n int) float32 {
			switch i % 5 {
			case 0:
				return inf
			case 1:
				return -inf
			}
			return float32(i)
		}},
		{"nan-runs", func(i, n int) float32 {
			if i/8%2 == 0 {
				return nan
			}
			return float32(i) * 1e30 // overflows to +Inf for large i: ties with NaN
		}},
		{"nan-payloads", func(i, n int) float32 {
			return math.Float32frombits(0x7fc00000 | uint32(i)&0x3fffff | uint32(i&1)<<31)
		}},
		{"ascending", func(i, n int) float32 { return float32(i) }},
		{"descending", func(i, n int) float32 { return float32(n - i) }},
		{"ties-straddling", func(i, n int) float32 {
			// A tenth above, most of the layer tied at the threshold.
			if i%10 == 3 {
				return -2
			}
			if i%10 == 7 {
				return 0.5
			}
			return 1
		}},
		{"two-levels", func(i, n int) float32 {
			// Everything inside one top-digit bucket but distinct below it.
			return math.Float32frombits(0x3f800000 | uint32(i*37)&0x7ffff)
		}},
	}
	var sel Selector
	for _, tc := range cases {
		for _, n := range equivalenceSizes {
			x := make([]float32, n)
			for i := range x {
				x[i] = tc.gen(i, n)
			}
			for _, k := range []int{0, 1, n / 20, n / 2, n - 1, n, n + 3} {
				t.Run(fmt.Sprintf("%s/n=%d/k=%d", tc.name, n, k), func(t *testing.T) {
					checkTopKEquivalence(t, &sel, x, k)
				})
			}
		}
	}
}

// TestTopKEquivalenceProperty draws gradient-shaped and adversarial layers
// from a seeded generator: ~2^40 of dynamic range salted with zeros, NaNs,
// infinities and repeated values, at sizes on both sides of ExactCap.
func TestTopKEquivalenceProperty(t *testing.T) {
	rng := tensor.NewRNG(43)
	var sel Selector
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(300)
		if trial%4 == 0 {
			n = ExactCap/2 + rng.Intn(4*ExactCap)
		}
		x := make([]float32, n)
		dup := (rng.Float32() - 0.5) * 8
		for i := range x {
			switch rng.Intn(16) {
			case 0:
				x[i] = 0
			case 1:
				x[i] = float32(math.NaN())
			case 2:
				x[i] = float32(math.Inf(1 - 2*rng.Intn(2)))
			case 3, 4, 5:
				x[i] = dup * float32(1-2*rng.Intn(2))
			default:
				x[i] = (rng.Float32() - 0.5) * float32(math.Pow(2, float64(rng.Intn(41)-20)))
			}
		}
		k := 1 + rng.Intn(n)
		if trial%3 == 0 {
			k = KForRatio(n, 0.01*float64(1+rng.Intn(5)))
		}
		checkTopKEquivalence(t, &sel, x, k)
	}
}

// FuzzTopKEquivalence decodes the input as little-endian float32s, tiles
// them rep times (so short inputs still cross ExactCap, and every value is
// a heavy tie) and checks kernel ≡ oracle for the fuzzed k.
func FuzzTopKEquivalence(f *testing.F) {
	le := binary.LittleEndian
	seed := func(vals ...float32) []byte {
		var b []byte
		for _, v := range vals {
			b = le.AppendUint32(b, math.Float32bits(v))
		}
		return b
	}
	f.Add(seed(1, -2, 3, 0, -0.5), uint16(2), uint8(0))
	f.Add(seed(0, 0, 0, 0), uint16(3), uint8(200))
	f.Add(seed(float32(math.NaN()), float32(math.Inf(-1)), 1e-45, -1e-45), uint16(700), uint8(255))
	f.Add(seed(1, 1.0000001, 1.0000002, 0.99999994), uint16(4000), uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, k uint16, rep uint8) {
		base := len(data) / 4
		if base == 0 || base > 1024 {
			return
		}
		tiles := 1 + int(rep)%32
		x := make([]float32, 0, base*tiles)
		for r := 0; r < tiles; r++ {
			for i := 0; i < base; i++ {
				x = append(x, math.Float32frombits(le.Uint32(data[4*i:])))
			}
		}
		var sel Selector
		checkTopKEquivalence(t, &sel, x, int(k)%(len(x)+2))
	})
}
