//go:build race

// Package raceflag reports whether the binary was built with the race
// detector. Allocation-count tests consult it: under -race, sync.Pool
// deliberately drops a fraction of Puts, so steady-state alloc assertions
// on pooled paths are not meaningful there.
package raceflag

// Enabled reports a -race build. Test seam: the allocation-count tests of
// several packages skip under the race detector.
const Enabled = true
