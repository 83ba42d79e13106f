package tensor

import (
	"encoding/binary"
	"math"
	"testing"

	"dgs/internal/raceflag"
)

// streamSpecials are the bit patterns the streaming kernels must order and
// carry exactly: signed zeros, denormals, the largest finite, ±Inf and NaN
// payloads of both signs.
var streamSpecials = []uint32{
	0x00000000, 0x80000000, 0x00000001, 0x807fffff, 0x00800000, 0x7f7fffff,
	0x7f800000, 0xff800000, 0x7fc00000, 0xffc00001, 0x7f800001, 0x3f800000,
}

// streamInput returns n values: mostly normal draws, with every tenth a
// special bit pattern when specials is set.
func streamInput(rng *RNG, n int, specials bool) []float32 {
	x := make([]float32, n)
	rng.FillNormal(x, 0, 1)
	if specials {
		for i := 0; i < n; i += 10 {
			x[i] = math.Float32frombits(streamSpecials[(i/10)%len(streamSpecials)])
		}
	}
	return x
}

// sameBits is bitwise equality, except that any two NaNs are equal: which
// NaN payload an arithmetic operation propagates is the hardware's choice,
// and nothing downstream reads it (Rank maps every NaN to +Inf).
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

func sameFloat64(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// TestAxpbyCountMatchesLoop holds AxpbyCount, on whichever body this host
// runs, to the plain loop: bitwise the same x, the same count, and Σ|x|
// within float64 rounding of the in-order sum.
func TestAxpbyCountMatchesLoop(t *testing.T) {
	rng := NewRNG(41)
	for _, n := range []int{0, 1, 7, 8, 9, 63, 1024, 1031} {
		for _, specials := range []bool{false, true} {
			for _, c := range []struct {
				a, b  float32
				floor uint32
			}{{0.7, 0.1, 0x3f800000}, {1, 0.02, 0}, {1, 1, 0x3e000000}, {0.9, -3, 0x7f800000}, {1, 1, 0xffffffff}} {
				x, y := streamInput(rng, n, specials), streamInput(rng, n, specials)
				want := append([]float32(nil), x...)
				wantCount, wantSum := 0, 0.0
				for j := range want {
					want[j] = float32(c.a*want[j]) + float32(c.b*y[j])
					if math.Float32bits(want[j])&magMask >= min(c.floor, infMag) {
						wantCount++
					}
					wantSum += math.Abs(float64(want[j]))
				}
				count, sum := AxpbyCount(x, y, c.a, c.b, c.floor)
				for j := range x {
					if !sameBits(x[j], want[j]) {
						t.Fatalf("n=%d %+v: x[%d] = %#x, loop %#x", n, c, j, math.Float32bits(x[j]), math.Float32bits(want[j]))
					}
				}
				if count != wantCount {
					t.Fatalf("n=%d %+v: count %d, loop %d", n, c, count, wantCount)
				}
				if !(sum == wantSum || math.Abs(sum-wantSum) <= 1e-12*wantSum || (sum != sum && wantSum != wantSum)) {
					t.Fatalf("n=%d %+v: Σ|x| = %v, loop %v", n, c, sum, wantSum)
				}
			}
		}
	}
}

// TestSweepMatchesLoop holds Sweep to the plain loop on whichever body this
// host runs, from empty slices (Sweep grows them), from slices with a prefix
// (appended after it) and with room for exactly the selected entries plus
// one register (no growth).
func TestSweepMatchesLoop(t *testing.T) {
	rng := NewRNG(42)
	for _, n := range []int{0, 1, 7, 8, 9, 100, 1024, 4099} {
		for _, s := range []float32{1, 1 / float32(0.7), -0.5} {
			for _, floor := range []uint32{0, 0x3f000000, 0x3fc00000, 0x7f800000, 0xffffffff} {
				x := streamInput(rng, n, true)
				want := append([]float32(nil), x...)
				var wantIdx []int32
				var wantVal []float32
				for j, v := range want {
					if math.Float32bits(v)&magMask >= min(floor, infMag) {
						wantIdx, wantVal = append(wantIdx, int32(j)), append(wantVal, v)
					} else if s != 1 {
						want[j] = v * s
					}
				}
				for _, prefix := range []int{0, 3} {
					for _, exact := range []bool{false, true} {
						got := append([]float32(nil), x...)
						idx, val := make([]int32, prefix), make([]float32, prefix)
						if exact {
							idx = append(make([]int32, 0, prefix+len(wantIdx)+StreamLanes), idx...)
							val = append(make([]float32, 0, prefix+len(wantIdx)+StreamLanes), val...)
						}
						idx, val = Sweep(got, s, floor, idx, val)
						if len(idx) != prefix+len(wantIdx) || len(val) != len(idx) {
							t.Fatalf("n=%d s=%v floor=%#x: %d/%d entries, loop %d", n, s, floor, len(idx)-prefix, len(val)-prefix, len(wantIdx))
						}
						for j := range wantIdx {
							if idx[prefix+j] != wantIdx[j] || !sameBits(val[prefix+j], wantVal[j]) {
								t.Fatalf("n=%d s=%v floor=%#x: entry %d = (%d, %v), loop (%d, %v)",
									n, s, floor, j, idx[prefix+j], val[prefix+j], wantIdx[j], wantVal[j])
							}
						}
						for j := range got {
							if !sameBits(got[j], want[j]) {
								t.Fatalf("n=%d s=%v floor=%#x: x[%d] = %v, loop %v", n, s, floor, j, got[j], want[j])
							}
						}
					}
				}
			}
		}
	}
}

// diffFoldLoop is the plain gather loop DiffFold must reproduce.
func diffFoldLoop(m, v []float32, base int32, idx []int32, val []float32) ([]int32, []float32, bool) {
	left := false
	for j := range m {
		if d := m[j] - v[j]; d != 0 {
			idx, val = append(idx, base+int32(j)), append(val, d)
			v[j] += d
			left = left || v[j] != m[j]
		}
	}
	return idx, val, left
}

// TestDiffFoldMatchesLoop holds DiffFold to the plain loop on whichever body
// this host runs: the same entries after a prefix, numbered from base, the
// same v bit for bit and the same left. Besides normal draws with a tenth of
// the coordinates changed, m and v carry every special pattern, the
// ulp-gap pair v = 2²⁵, M = 1 (the fold rounds v + (M − v) to 0, so left
// must be set), and an unchanged lane holding −0 in v against +0 in M,
// which must keep its sign bit.
func TestDiffFoldMatchesLoop(t *testing.T) {
	rng := NewRNG(45)
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 1031} {
		for _, c := range []string{"sparse", "specials", "ulp_gap", "neg_zero"} {
			for _, prefix := range []int{0, 3} {
				m := streamInput(rng, n, c == "specials")
				v := append([]float32(nil), m...)
				for j := range v {
					if rng.Intn(10) == 0 {
						v[j] = float32(rng.NormFloat64())
					}
				}
				if c == "specials" {
					for j := 5; j < n; j += 10 {
						v[j] = math.Float32frombits(streamSpecials[(j/10+3)%len(streamSpecials)])
					}
				}
				if n > 0 && c == "ulp_gap" {
					m[n/2], v[n/2] = 1, 1<<25
				}
				if n > 0 && c == "neg_zero" {
					m[n-1], v[n-1] = 0, float32(math.Copysign(0, -1))
				}
				wantV := append([]float32(nil), v...)
				wantIdx, wantVal, wantLeft := diffFoldLoop(m, wantV, 1000, make([]int32, prefix), make([]float32, prefix))
				idx, val, left := DiffFold(m, v, 1000, make([]int32, prefix), make([]float32, prefix))
				if len(idx) != len(wantIdx) || len(val) != len(idx) {
					t.Fatalf("n=%d %s: %d/%d entries, loop %d", n, c, len(idx), len(val), len(wantIdx))
				}
				for j := range wantIdx {
					if idx[j] != wantIdx[j] || !sameBits(val[j], wantVal[j]) {
						t.Fatalf("n=%d %s: entry %d = (%d, %#x), loop (%d, %#x)",
							n, c, j, idx[j], math.Float32bits(val[j]), wantIdx[j], math.Float32bits(wantVal[j]))
					}
				}
				for j := range v {
					if !sameBits(v[j], wantV[j]) {
						t.Fatalf("n=%d %s: v[%d] = %#x, loop %#x", n, c, j, math.Float32bits(v[j]), math.Float32bits(wantV[j]))
					}
				}
				if left != wantLeft {
					t.Fatalf("n=%d %s: left %v, loop %v", n, c, left, wantLeft)
				}
				if c == "ulp_gap" && n > 0 && !left {
					t.Fatalf("n=%d: the ulp-gap pair folded without leaving a difference", n)
				}
				if c == "neg_zero" && n > 0 && math.Float32bits(v[n-1]) != 0x80000000 {
					t.Fatalf("n=%d: unchanged −0 in v became %#x", n, math.Float32bits(v[n-1]))
				}
			}
		}
	}
}

// TestDiffCountMatchesLoop holds DiffCount to the plain loop on whichever
// body this host runs: bitwise the same d and the same two counts, with the
// special patterns in m and in v (so differences come out ±0, denormal,
// ±Inf and NaN) and floors of 0, +Inf and above.
func TestDiffCountMatchesLoop(t *testing.T) {
	rng := NewRNG(46)
	for _, n := range []int{0, 1, 7, 8, 9, 1031} {
		for _, specials := range []bool{false, true} {
			for _, floor := range []uint32{0, 1, 0x3f000000, 0x7f800000, 0x7fc00000, 0xffffffff} {
				m := streamInput(rng, n, specials)
				v := append([]float32(nil), m...)
				for j := range v {
					if rng.Intn(3) == 0 {
						v[j] = float32(rng.NormFloat64())
					}
				}
				if specials {
					for j := 5; j < n; j += 10 {
						v[j] = math.Float32frombits(streamSpecials[(j/10+3)%len(streamSpecials)])
					}
				}
				want := make([]float32, n)
				wantAt, wantNZ := 0, 0
				for j := range want {
					want[j] = m[j] - v[j]
					if mag := math.Float32bits(want[j]) & magMask; mag != 0 {
						wantNZ++
						if mag >= min(floor, infMag) {
							wantAt++
						}
					}
				}
				d := streamInput(rng, n, false) // stale contents, all overwritten
				at, nz := DiffCount(d, m, v, floor)
				for j := range d {
					if !sameBits(d[j], want[j]) {
						t.Fatalf("n=%d floor=%#x: d[%d] = %#x, loop %#x", n, floor, j, math.Float32bits(d[j]), math.Float32bits(want[j]))
					}
				}
				if at != wantAt || nz != wantNZ {
					t.Fatalf("n=%d floor=%#x: counts (%d, %d), loop (%d, %d)", n, floor, at, nz, wantAt, wantNZ)
				}
			}
		}
	}
}

func TestStreamSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := NewRNG(43)
	x, y, d := streamInput(rng, 4099, false), streamInput(rng, 4099, false), make([]float32, 4099)
	idx, val := make([]int32, 0, len(x)+StreamLanes), make([]float32, 0, len(x)+StreamLanes)
	if allocs := testing.AllocsPerRun(10, func() {
		AxpbyCount(x, y, 0.7, 0.01, 0x3f800000)
		idx, val = Sweep(x, 1/float32(0.7), 0x3f800000, idx[:0], val[:0])
		// x and y differ everywhere after the update: every fold emits.
		idx, val, _ = DiffFold(x, y, 0, idx[:0], val[:0])
		DiffCount(d, x, y, 0x3f800000)
	}); allocs > 0 {
		t.Errorf("AxpbyCount + Sweep + DiffFold + DiffCount with room allocate %v objects, want 0", allocs)
	}
}

// FuzzStreamKernels holds each AVX2 body to its Go twin on arbitrary float
// bit patterns — ±0, denormals, ±Inf, NaN payloads — at any length, floor
// and coefficients: bitwise the same stores, counts, per-lane sums, selected
// entries and stopping point (NaN payloads aside, see sameBits). It skips
// where the AVX2 bodies do not run (other architectures, DGS_DISABLE_SIMD).
func FuzzStreamKernels(f *testing.F) {
	seed := make([]byte, 0, 8*len(streamSpecials))
	for i, s := range streamSpecials {
		seed = binary.LittleEndian.AppendUint32(seed, s)
		seed = binary.LittleEndian.AppendUint32(seed, streamSpecials[len(streamSpecials)-1-i])
	}
	f.Add(seed, uint32(0x3f800000), math.Float32bits(0.7), math.Float32bits(0.1), math.Float32bits(1/0.7), uint8(3))
	f.Add(seed, uint32(0), math.Float32bits(1), math.Float32bits(1), math.Float32bits(1), uint8(0))
	f.Add(seed[:8*9], uint32(0x7f800000), uint32(0x7fc00000), uint32(0x80000001), uint32(0xff800000), uint8(8))
	f.Fuzz(func(t *testing.T, data []byte, floor, aBits, bBits, sBits uint32, room uint8) {
		if !useSIMDKernel {
			t.Skip("AVX2 bodies not in use on this host")
		}
		n := len(data) / 8 &^ (StreamLanes - 1)
		if n == 0 {
			return
		}
		x, y := make([]float32, n), make([]float32, n)
		for i := range x {
			x[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[8*i:]))
			y[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[8*i+4:]))
		}
		a, b, s := math.Float32frombits(aBits), math.Float32frombits(bBits), math.Float32frombits(sBits)
		floor = min(floor, infMag)

		// The sweep first, on the inputs as given.
		xs, xg := append([]float32(nil), x...), append([]float32(nil), x...)
		r := StreamLanes + int(room)%(n+1)
		idxS, valS := make([]int32, r), make([]float32, r)
		done, w := sweepAVX2(&xs[0], n, s, s != 1, floor, &compressLUT, &idxS[0], &valS[0], 5, r)
		if done%StreamLanes != 0 || done > n || (done < n && w+StreamLanes <= r) {
			t.Fatalf("sweep stopped at %d of %d with %d of %d entries", done, n, w, r)
		}
		idxG, valG := sweepGo(xg[:done], 0, s, floor, nil, nil)
		if w != len(idxG) {
			t.Fatalf("sweep kept %d, twin %d", w, len(idxG))
		}
		for j := range idxG {
			if idxS[j] != idxG[j]+5 || !sameBits(valS[j], valG[j]) {
				t.Fatalf("sweep entry %d = (%d, %#x), twin (%d, %#x)", j, idxS[j], math.Float32bits(valS[j]), idxG[j]+5, math.Float32bits(valG[j]))
			}
		}
		for j := range xs {
			if !sameBits(xs[j], xg[j]) {
				t.Fatalf("sweep x[%d] = %#x, twin %#x", j, math.Float32bits(xs[j]), math.Float32bits(xg[j]))
			}
		}

		// The gather, x as M and y as v.
		vs, vg := append([]float32(nil), y...), append([]float32(nil), y...)
		idxS, valS = make([]int32, n), make([]float32, n)
		w, leftS := diffFoldAVX2(&x[0], &vs[0], n, 5, &compressLUT, &idxS[0], &valS[0])
		idxG, valG, leftG := diffFoldGo(x, vg, 0, 5, nil, nil, false)
		if w != len(idxG) || leftS != leftG {
			t.Fatalf("diff fold emitted %d (left %v), twin %d (left %v)", w, leftS, len(idxG), leftG)
		}
		for j := range idxG {
			if idxS[j] != idxG[j] || !sameBits(valS[j], valG[j]) {
				t.Fatalf("diff fold entry %d = (%d, %#x), twin (%d, %#x)", j, idxS[j], math.Float32bits(valS[j]), idxG[j], math.Float32bits(valG[j]))
			}
		}
		for j := range vs {
			if !sameBits(vs[j], vg[j]) {
				t.Fatalf("diff fold v[%d] = %#x, twin %#x", j, math.Float32bits(vs[j]), math.Float32bits(vg[j]))
			}
		}

		// The Eq. 6 gather's measuring pass, x as M and y as v.
		ds, dg := make([]float32, n), make([]float32, n)
		f := max(floor, 1)
		atS, nzS := diffCountAVX2(&ds[0], &x[0], &y[0], n, f)
		atG, nzG := diffCountGo(dg, x, y, f)
		if atS != atG || nzS != nzG {
			t.Fatalf("diff count (%d, %d), twin (%d, %d)", atS, nzS, atG, nzG)
		}
		for j := range ds {
			if !sameBits(ds[j], dg[j]) {
				t.Fatalf("diff count d[%d] = %#x, twin %#x", j, math.Float32bits(ds[j]), math.Float32bits(dg[j]))
			}
		}

		xa, xg := append([]float32(nil), x...), append([]float32(nil), x...)
		var la, lg [StreamLanes]float64
		ca := axpbyCountAVX2(&xa[0], &y[0], n, a, b, floor, &la)
		cg := axpbyCountLanes(xg, y, a, b, floor, &lg)
		if ca != cg {
			t.Fatalf("axpby count %d, twin %d", ca, cg)
		}
		for l := range la {
			if !sameFloat64(la[l], lg[l]) {
				t.Fatalf("axpby lane %d sum %v, twin %v", l, la[l], lg[l])
			}
		}
		for j := range xa {
			if !sameBits(xa[j], xg[j]) {
				t.Fatalf("axpby x[%d] = %#x, twin %#x", j, math.Float32bits(xa[j]), math.Float32bits(xg[j]))
			}
		}
	})
}

// BenchmarkStreamKernels times each vector body against its Go twin on the
// benchmark MLP's 512×512 layer: x = 0.7·x + 0.02·y with the count and sum
// (pass 1), and the split of a normal draw at 1.8, which leaves 7 % of it
// over the floor, scaling the rest by −1 (pass 2: every store taken, and
// the magnitudes, so the split, the same on every iteration). The gather
// folds v toward one of two models that differ in a tenth of their
// coordinates, alternating, so every iteration emits and folds that tenth;
// the Eq. 6 gather's measuring pass diffs those two models, counting the
// differences over 1.8 and the nonzero ones.
func BenchmarkStreamKernels(b *testing.B) {
	const n = 512 * 512
	rng := NewRNG(44)
	x, y, xs := streamInput(rng, n, false), streamInput(rng, n, false), streamInput(rng, n, false)
	floor := math.Float32bits(1.8)
	idx, val := make([]int32, 0, n), make([]float32, 0, n)
	var lanes [StreamLanes]float64
	ms := [2][]float32{streamInput(rng, n, false), nil}
	ms[1] = append([]float32(nil), ms[0]...)
	for j := range ms[1] {
		if rng.Intn(10) == 0 {
			ms[1][j] = float32(rng.NormFloat64())
		}
	}
	v, d := append([]float32(nil), ms[0]...), make([]float32, n)
	fold := 0
	for _, c := range []struct {
		name string
		simd bool
		run  func()
	}{
		{"axpby_count/go", false, func() { axpbyCountLanes(x, y, 0.7, 0.02, floor, &lanes) }},
		{"axpby_count/avx2", true, func() { axpbyCountAVX2(&x[0], &y[0], n, 0.7, 0.02, floor, &lanes) }},
		{"sweep/go", false, func() { idx, val = sweepGo(xs, 0, -1, floor, idx[:0], val[:0]) }},
		{"sweep/avx2", true, func() { sweepAVX2(&xs[0], n, -1, true, floor, &compressLUT, &idx[:1][0], &val[:1][0], 0, n) }},
		{"diff_fold/go", false, func() { fold++; idx, val, _ = diffFoldGo(ms[fold&1], v, 0, 0, idx[:0], val[:0], false) }},
		{"diff_fold/avx2", true, func() { fold++; diffFoldAVX2(&ms[fold&1][0], &v[0], n, 0, &compressLUT, &idx[:1][0], &val[:1][0]) }},
		{"diff_count/go", false, func() { diffCountGo(d, ms[1], ms[0], floor) }},
		{"diff_count/avx2", true, func() { diffCountAVX2(&d[0], &ms[1][0], &ms[0][0], n, floor) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			if c.simd && !useSIMDKernel {
				b.Skip("AVX2 bodies not in use on this host")
			}
			for i := 0; i < b.N; i++ {
				c.run()
			}
		})
	}
}
