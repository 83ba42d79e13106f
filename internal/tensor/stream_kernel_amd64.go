//go:build amd64

package tensor

// axpbyCountAVX2 is AxpbyCount's vector body over n coordinates, n a
// positive multiple of StreamLanes: x = a·x + b·y (VMULPS, VMULPS, VADDPS),
// the count of new magnitudes ≥ floor, and per-lane Σ|x| added into lanes.
// Implemented in stream_kernel_amd64.s; axpbyCountLanes is its twin.
//
//go:noescape
func axpbyCountAVX2(x, y *float32, n int, a, b float32, floor uint32, lanes *[StreamLanes]float64) (count int)

// sweepAVX2 is Sweep's vector body over whole blocks of StreamLanes
// coordinates from x, n of them at most. It stops early once fewer than
// StreamLanes slots of room are left at idx/val, because every block stores
// a full register there and advances by the lanes it kept. Kept positions
// are numbered from base. It returns the coordinates consumed and the
// entries appended. Implemented in stream_kernel_amd64.s; sweepGo is its
// twin.
//
//go:noescape
func sweepAVX2(x *float32, n int, s float32, scale bool, floor uint32, lut *[1 << StreamLanes]uint64,
	idx *int32, val *float32, base int32, room int) (done, w int)

// diffFoldAVX2 is DiffFold's vector body over n coordinates, n a positive
// multiple of StreamLanes. Emitted positions are numbered from base; idx and
// val need room for n entries, because every group stores a full register
// there. It returns the entries appended and whether some folded
// coordinate still differs from m. Implemented in stream_kernel_amd64.s;
// diffFoldGo is its twin.
//
//go:noescape
func diffFoldAVX2(m, v *float32, n int, base int32, lut *[1 << StreamLanes]uint64, idx *int32, val *float32) (w int, left bool)

// diffCountAVX2 is DiffCount's vector body over n coordinates, n a positive
// multiple of StreamLanes, for a floor of at least 1: d = m − v, the count
// of differences whose magnitude is ≥ floor and the count of nonzero ones.
// Implemented in stream_kernel_amd64.s; diffCountGo is its twin.
//
//go:noescape
func diffCountAVX2(d, m, v *float32, n int, floor uint32) (atFloor, nonzero int)
