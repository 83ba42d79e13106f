//go:build !amd64

package tensor

// axpbyCountAVX2, sweepAVX2, diffFoldAVX2 and diffCountAVX2 are never called when
// useSIMDKernel is false; these stubs keep the dispatch sites compiling on
// other architectures.
func axpbyCountAVX2(x, y *float32, n int, a, b float32, floor uint32, lanes *[StreamLanes]float64) (count int) {
	panic("tensor: SIMD streaming kernel unavailable on this architecture")
}

func sweepAVX2(x *float32, n int, s float32, scale bool, floor uint32, lut *[1 << StreamLanes]uint64,
	idx *int32, val *float32, base int32, room int) (done, w int) {
	panic("tensor: SIMD streaming kernel unavailable on this architecture")
}

func diffFoldAVX2(m, v *float32, n int, base int32, lut *[1 << StreamLanes]uint64, idx *int32, val *float32) (w int, left bool) {
	panic("tensor: SIMD streaming kernel unavailable on this architecture")
}

func diffCountAVX2(d, m, v *float32, n int, floor uint32) (atFloor, nonzero int) {
	panic("tensor: SIMD streaming kernel unavailable on this architecture")
}
