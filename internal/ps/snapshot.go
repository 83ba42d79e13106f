package ps

import "dgs/internal/sparse"

// Model reads (DESIGN.md §16). A reader cuts straight from M under the model
// read lock. The clock t only advances inside the write section, after that
// section's applies completed, so it is stable for the whole read section
// and every cut equals M(t) for a t that actually existed: prefix-consistent
// by construction, never torn.
//
// Repeat cuts are incremental without any state of their own beyond one
// clock: mver already stamps every block with the clock of its last apply,
// so a block stamped at or below the reader's previous cut still holds what
// the reader copied then. Under the read lock Snapshot reads each block's
// stamp once and copies only the blocks stamped since, the dirty-range
// bound the downward gather uses; with the clock unchanged it takes no lock
// at all.
//
// There is no shadow copy of M. The servers that serve reads are mirrors
// (mirror.go) with a single writer, one ApplyDiff per poll or window, so a
// second buffer would only double the copies without relieving anyone.
//
// MSnapshotLocked, in baseline_test.go, is the frozen full-copy reference
// TestSnapshotEquivalence compares against.

// SnapshotState is one reader's incremental cut buffer: a copy of M and the
// clock it was cut at. Successive Snapshot calls into the same state copy
// only blocks that changed since that reader's previous cut. A state belongs
// to the server that made it. Not safe for concurrent use by multiple
// goroutines; each reader owns one.
type SnapshotState struct {
	m [][]float32
	t uint64
}

// Model returns the reader's buffered cut of M. It aliases the state's
// internal storage: valid until the next Snapshot into the same state.
func (st *SnapshotState) Model() [][]float32 { return st.m }

// T returns the server timestamp the buffered cut is consistent at.
func (st *SnapshotState) T() uint64 { return st.t }

// NewSnapshotState allocates a zeroed cut buffer matching this server's
// geometry. The first Snapshot into it copies every block ever touched.
func (s *Server) NewSnapshotState() *SnapshotState {
	return &SnapshotState{m: zeroModel(s.cfg.LayerSizes)}
}

// Snapshot cuts the current M into st, copying only blocks stamped after
// st's previous cut, and returns the timestamp the cut is consistent at.
func (s *Server) Snapshot(st *SnapshotState) uint64 {
	// t advances only after its applies completed, so an unchanged clock
	// means st still holds the current M: an idle read takes no lock.
	if t := s.t.Load(); t == st.t {
		return t
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for layer, ml := range s.m {
		copyStamped(st.m[layer], ml, s.mver[layer], st.t, s.blockShift)
	}
	st.t = s.t.Load()
	return st.t
}

// copyStamped copies into dst the blocks of src whose stamp in ver is above
// since — the blocks changed after a cut taken at since — and returns how
// many blocks and elements it copied. It is the one "what changed since
// stamp s" read: Snapshot runs it over M, Capture over M and every v_k.
func copyStamped(dst, src []float32, ver []uint64, since uint64, shift uint) (blocks, elems int) {
	for b, v := range ver {
		if v > since {
			lo, hi := sparse.BlockSpan(b, shift, len(src))
			copy(dst[lo:hi], src[lo:hi])
			blocks++
			elems += hi - lo
		}
	}
	return blocks, elems
}

// MSnapshot copies the current update accumulation M (θ_t − θ_0) into dst
// under the model read lock and returns the timestamp the copy is
// consistent at.
func (s *Server) MSnapshot(dst [][]float32) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i := range s.m {
		copy(dst[i], s.m[i])
	}
	return s.t.Load()
}
