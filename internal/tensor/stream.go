package tensor

import (
	"math"
	"math/bits"
	"slices"
)

// Streaming kernels for the worker's warm-started Top-k (optim's Prepare):
// one pass that updates a layer and measures it against a magnitude floor,
// and one that splits it at that floor. Each has an AVX2 body on amd64 (the
// same useSIMDKernel switch, and DGS_DISABLE_SIMD, as the GEMM micro-kernel)
// and a portable Go twin that computes the same bits; the SIMD body covers a
// multiple of StreamLanes coordinates and the twin finishes the rest.
//
// A floor is compared against a value's magnitude bits, Float32bits(v) &
// 0x7fffffff: the order of |v| as an integer, in which every NaN sits above
// +Inf, so "at or above the floor" ranks NaN as +Inf exactly as sparse.Rank
// does. A floor above +Inf's bits counts as +Inf's.

const (
	// StreamLanes is the float32 lanes of one AVX2 register: the block the
	// vector bodies work in, and the slack Sweep's output needs beyond the
	// entries it appends to stay allocation-free.
	StreamLanes = 8
	magMask     = 0x7fffffff
	infMag      = 0x7f800000
)

// AxpbyCount sets x = a·x + b·y over len(x) coordinates (y at least as long),
// rounding each product to float32 before the sum — no fused multiply-add,
// so the result is bitwise the plain Go loop's (up to which payload a NaN
// result carries, the hardware's choice). It returns how many of the
// new values have magnitude at or above floor and Σ|x| in float64: lane l
// of StreamLanes accumulates the coordinates ≡ l (mod StreamLanes) of the
// vector body, the lanes are summed pairwise, and the tail is added in
// order.
func AxpbyCount(x, y []float32, a, b float32, floor uint32) (count int, sum float64) {
	floor = min(floor, infMag)
	y = y[:len(x)]
	body := len(x) &^ (StreamLanes - 1)
	var lanes [StreamLanes]float64
	if useSIMDKernel && body > 0 {
		count = axpbyCountAVX2(&x[0], &y[0], body, a, b, floor, &lanes)
	} else {
		count = axpbyCountLanes(x[:body], y[:body], a, b, floor, &lanes)
	}
	sum = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
	for j := body; j < len(x); j++ {
		v := float32(a*x[j]) + float32(b*y[j])
		x[j] = v
		m := math.Float32bits(v) & magMask
		if m >= floor {
			count++
		}
		sum += float64(math.Float32frombits(m))
	}
	return count, sum
}

// axpbyCountLanes is the Go twin of axpbyCountAVX2 over a multiple of
// StreamLanes coordinates.
func axpbyCountLanes(x, y []float32, a, b float32, floor uint32, lanes *[StreamLanes]float64) (count int) {
	for i := 0; i+StreamLanes <= len(x); i += StreamLanes {
		xs, ys := x[i:i+StreamLanes], y[i:i+StreamLanes]
		for l := range xs {
			v := float32(a*xs[l]) + float32(b*ys[l])
			xs[l] = v
			m := math.Float32bits(v) & magMask
			if m >= floor {
				count++
			}
			lanes[l] += float64(math.Float32frombits(m))
		}
	}
	return count
}

// Sweep walks x in order once. Each coordinate whose magnitude is at or
// above floor is appended to idx (its position) and val (its value); every
// other coordinate is multiplied by s in place, unless s is 1, in which case
// x is not written at all. idx and val must have equal lengths. They grow
// when they must; a caller that passes room for the appended count plus
// StreamLanes (say, AxpbyCount's count at the same floor) makes Sweep
// allocation-free.
func Sweep(x []float32, s float32, floor uint32, idx []int32, val []float32) ([]int32, []float32) {
	floor = min(floor, infMag)
	i := 0
	if useSIMDKernel {
		for body := len(x) &^ (StreamLanes - 1); i < body; {
			room := min(cap(idx), cap(val)) - len(idx)
			if room < StreamLanes {
				grow := max(len(idx), 2*StreamLanes)
				idx, val = slices.Grow(idx, grow), slices.Grow(val, grow)
				room = min(cap(idx), cap(val)) - len(idx)
			}
			n := len(idx)
			done, w := sweepAVX2(&x[i], body-i, s, s != 1, floor, &compressLUT,
				&idx[:n+1][n], &val[:n+1][n], int32(i), room)
			idx, val = idx[:n+w], val[:n+w]
			i += done
		}
	}
	return sweepGo(x, i, s, floor, idx, val)
}

// sweepGo is Sweep's Go twin from coordinate i on.
func sweepGo(x []float32, i int, s float32, floor uint32, idx []int32, val []float32) ([]int32, []float32) {
	scale := s != 1
	for ; i < len(x); i++ {
		v := x[i]
		if math.Float32bits(v)&magMask >= floor {
			idx, val = append(idx, int32(i)), append(val, v)
		} else if scale {
			x[i] = v * s
		}
	}
	return idx, val
}

// compressLUT maps an 8-bit lane mask to the positions of its set bits in
// ascending order, one byte each: the permutation that packs a register's
// selected lanes to its front.
var compressLUT = func() (lut [1 << StreamLanes]uint64) {
	for m := range lut {
		var packed uint64
		for b, rest := 0, uint(m); rest != 0; b, rest = b+1, rest&(rest-1) {
			packed |= uint64(bits.TrailingZeros(rest)) << (8 * b)
		}
		lut[m] = packed
	}
	return lut
}()
