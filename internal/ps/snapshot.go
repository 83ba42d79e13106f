package ps

import (
	"sync"
	"sync/atomic"

	"dgs/internal/sparse"
)

// Copy-on-version model snapshots (DESIGN.md §16).
//
// MSnapshot used to hold the model read lock for a full O(model) copy, so a
// metrics scrape or evaluator read parked Push's write-lock acquisition for
// the whole copy. This file decouples readers from the apply path with an
// RCU-style double buffer: the live M (written under s.mu) and a shadow copy
// guarded by its own lock that Push never touches.
//
//   - refreshShadow pumps the shadow up to date by copying only blocks whose
//     mver stamp advanced past the shadow's per-block version — the same
//     dirty-range bound the downward diff and incremental Capture use. It
//     holds s.mu.RLock for O(blocks dirtied since the last refresh), the
//     cost class of one worker gather, never O(model).
//   - Readers then cut from the shadow under the shadow's read lock, which
//     Push never acquires, so the O(model) part of a snapshot stalls nothing.
//     Per-reader SnapshotState buffers make repeat cuts incremental too:
//     the (shadow version, reader version) pair per block is the epoch pair
//     that decides staleness, so an unchanged block is never re-copied and a
//     torn cut is impossible by construction — a block enters the reader's
//     buffer only together with the shadow version it was published under.
//
// The shadow is a consistent cut: one refresh runs under one continuous
// s.mu.RLock, during which the clock t is stable (t only advances inside the
// write section), so shadow == M(t) for a t that actually existed — the same
// guarantee the old full-lock MSnapshot gave, minus the stall.
//
// MSnapshotLocked, in baseline_test.go, keeps the old full-lock path
// verbatim as the frozen equivalence baseline TestSnapshotEquivalence
// compares against.

// snapState is the lazily-allocated shadow of M. mu orders the refresh
// writer against snapshot readers; s.mu is only held inside refreshShadow,
// so model writers and shadow readers never share a lock.
type snapState struct {
	mu  sync.RWMutex
	m   [][]float32
	ver [][]uint64 // per block: mver value the shadow block was copied at
	t   atomic.Uint64
}

// SnapshotState is one reader's incremental cut buffer. Successive Snapshot
// calls into the same state copy only blocks that changed since that
// reader's previous cut. Not safe for concurrent use by multiple goroutines;
// each reader owns one.
type SnapshotState struct {
	m   [][]float32
	ver [][]uint64
	t   uint64
}

// Model returns the reader's buffered cut of M. It aliases the state's
// internal storage: valid until the next Snapshot into the same state.
func (st *SnapshotState) Model() [][]float32 { return st.m }

// T returns the server timestamp the buffered cut is consistent at.
func (st *SnapshotState) T() uint64 { return st.t }

// NewSnapshotState allocates a zeroed cut buffer matching this server's
// geometry. The first Snapshot into it copies every block ever touched.
func (s *Server) NewSnapshotState() *SnapshotState {
	st := &SnapshotState{
		m:   make([][]float32, len(s.cfg.LayerSizes)),
		ver: make([][]uint64, len(s.cfg.LayerSizes)),
	}
	for i, n := range s.cfg.LayerSizes {
		st.m[i] = make([]float32, n)
		st.ver[i] = make([]uint64, sparse.NumBlocks(n, s.blockShift))
	}
	return st
}

// shadow returns the snapshot shadow, allocating it on first use so servers
// that never serve snapshot reads (aggregator mirrors, shards) pay nothing.
func (s *Server) shadow() *snapState {
	s.snapOnce.Do(func() {
		sn := &snapState{
			m:   make([][]float32, len(s.cfg.LayerSizes)),
			ver: make([][]uint64, len(s.cfg.LayerSizes)),
		}
		for i, n := range s.cfg.LayerSizes {
			sn.m[i] = make([]float32, n)
			sn.ver[i] = make([]uint64, sparse.NumBlocks(n, s.blockShift))
		}
		s.snap.Store(sn)
	})
	return s.snap.Load()
}

// refreshShadow brings the shadow up to the current clock, copying only
// blocks stamped after the shadow's previous cut. Concurrent refreshers
// serialise on sn.mu; the s.mu.RLock section is O(dirty blocks), so the
// apply path sees at most a gather-sized read section, never a model copy.
func (s *Server) refreshShadow(sn *snapState) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	// Fast path: t only advances inside the write section after its apply
	// completed, so an unchanged clock means the shadow is already a cut of
	// the current M — the scrape costs no model-lock traffic at all.
	if s.t.Load() == sn.t.Load() {
		return
	}
	var copied, skipped uint64
	s.mu.RLock()
	t := s.t.Load()
	for layer, ml := range s.m {
		ver := s.mver[layer]
		sver := sn.ver[layer]
		for b := range ver {
			if ver[b] <= sver[b] {
				skipped++
				continue
			}
			lo, hi := sparse.BlockSpan(b, s.blockShift, len(ml))
			copy(sn.m[layer][lo:hi], ml[lo:hi])
			sver[b] = ver[b]
			copied++
		}
	}
	s.mu.RUnlock()
	sn.t.Store(t)
	s.snapRefreshes.Add(1)
	s.snapCopied.Add(copied)
	s.snapSkipped.Add(skipped)
	s.met.observeSnapRefresh(copied, skipped)
}

// Snapshot cuts the current M into st, copying only blocks that changed
// since st's previous cut, and returns the timestamp the cut is consistent
// at. The model lock is held only for the O(dirty) shadow refresh; the copy
// into st runs under the shadow read lock, which the push path never takes.
func (s *Server) Snapshot(st *SnapshotState) uint64 {
	sn := s.shadow()
	s.refreshShadow(sn)
	sn.mu.RLock()
	defer sn.mu.RUnlock()
	for layer := range sn.m {
		sver := sn.ver[layer]
		rver := st.ver[layer]
		for b := range sver {
			if sver[b] <= rver[b] {
				continue
			}
			lo, hi := sparse.BlockSpan(b, s.blockShift, len(sn.m[layer]))
			copy(st.m[layer][lo:hi], sn.m[layer][lo:hi])
			rver[b] = sver[b]
		}
	}
	st.t = sn.t.Load()
	s.snapReads.Add(1)
	s.met.observeSnapRead()
	return st.t
}

// MSnapshot copies the current update accumulation M (θ_t − θ_0) into dst
// and returns the timestamp the cut is consistent at. It cuts through the
// copy-on-version shadow: the model lock is held only for the O(dirty)
// refresh, so unlike the pre-§16 implementation a snapshot no longer parks
// the apply path for the duration of a full-model copy.
func (s *Server) MSnapshot(dst [][]float32) uint64 {
	sn := s.shadow()
	s.refreshShadow(sn)
	sn.mu.RLock()
	defer sn.mu.RUnlock()
	for i := range sn.m {
		copy(dst[i], sn.m[i])
	}
	s.snapReads.Add(1)
	s.met.observeSnapRead()
	return sn.t.Load()
}

// SnapshotT returns the clock of the shadow's most recent refresh (0 before
// the first one) without touching any lock — the staleness bound a replica
// or scraper can report against Timestamp().
func (s *Server) SnapshotT() uint64 {
	if sn := s.snap.Load(); sn != nil {
		return sn.t.Load()
	}
	return 0
}
