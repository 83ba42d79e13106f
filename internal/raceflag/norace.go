//go:build !race

package raceflag

// Enabled reports a -race build. Test seam: the allocation-count tests of
// several packages skip under the race detector.
const Enabled = false
