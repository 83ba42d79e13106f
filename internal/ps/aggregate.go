package ps

import (
	"fmt"

	"dgs/internal/sparse"
)

// Aggregation-tier support (DESIGN.md §11). An aggregator keeps a local
// mirror of its upstream shard as a plain Server (held by a Mirror,
// mirror.go): M here tracks the
// upstream M by applying the downward diffs the upstream returns for the
// aggregator's merged pushes, and each subscribed worker's v_k lives in the
// mirror exactly as it would on the shard. The split below is what lets one
// aggregation window amortise the model write lock over N workers: one
// ApplyDiff under the write lock applies the whole window's upstream diff,
// then N Gather calls do the per-worker v_k bookkeeping under the read
// lock only.

// ApplyDiff folds a downward difference into the model: M ← M + g, stamping
// the touched dirty-tracking blocks and advancing the timestamp by one —
// the mirror-side analogue of Push's apply phase (which applies an upward
// update with the opposite sign through the apply queue; a mirror has one
// writer, so ApplyDiff takes the lock directly). This is the only write-lock
// acquisition an aggregation window performs regardless of how many workers
// contributed. g must fit the model geometry (sparse.Update.Validate);
// callers that decode it from outside bytes validate first.
func (s *Server) ApplyDiff(g *sparse.Update) uint64 {
	s.mu.Lock()
	tNew := s.t.Load() + 1
	s.applyLocked(g, 1, tNew)
	s.t.Store(tNew)
	s.mu.Unlock()
	s.pushes.Add(1)
	s.applyBatches.Add(1)
	return tNew
}

// Gather computes worker k's downward difference G = M − v_k and folds it
// into v_k without applying anything — Push minus the apply phase. It takes
// only the model read lock, so the per-worker bookkeeping of a whole
// aggregation window runs without ever touching the write path. The
// returned update aliases per-worker scratch with Push's lifetime contract:
// valid until this worker's next Gather/Push/Resync.
func (s *Server) Gather(worker int) (sparse.Update, uint64) {
	if worker < 0 || worker >= s.cfg.Workers {
		panic(fmt.Sprintf("ps: worker %d out of range [0,%d)", worker, s.cfg.Workers))
	}
	w := &s.workers[worker]
	w.mu.Lock()
	defer w.mu.Unlock()

	stale := s.t.Load() - w.prev
	s.stalenessSum.Add(stale)
	atomicMax(&s.maxStaleness, stale)
	tSeen := s.gatherDown(w).tSeen
	return w.down, tSeen
}

// ApplyGathered folds an already-computed downward difference into worker
// k's v_k without rescanning the model — Gather minus the scan. The caller
// must have proved, via matching clean DownHorizon fingerprints, that g is
// bitwise the update Gather would have produced for this worker at
// timestamp tSeen (both workers held identical v_k against the same M, so
// their diffs coincide). The fold is the same additive op sparseDiff
// performs — vl[j] += dv — so v_k, the residual bitmap, and the vver
// stamps come out bitwise-identical to a real gather:
//
//   - a changed block's residual bit is decidable from the diff coordinates
//     alone, because a coordinate with no diff entry satisfies vl == ml
//     exactly (fl(ml−vl) == 0 iff ml == vl), and
//   - blocks without diff coordinates keep a clear residual bit, which the
//     clean-fingerprint precondition guarantees they already had.
//
// Cost is O(nnz(g)) against Gather's O(dirty blocks × block size) — the
// aggregation tier's encode-once cache uses this to skip both the scan and
// the encode for every subscriber after the first. Only valid on the
// default sparse downward path (no Secondary, no DenseDownward).
func (s *Server) ApplyGathered(worker int, g *sparse.Update, tSeen uint64) {
	if s.cfg.Secondary || s.cfg.DenseDownward {
		panic("ps: ApplyGathered requires the default sparse downward path")
	}
	if worker < 0 || worker >= s.cfg.Workers {
		panic(fmt.Sprintf("ps: worker %d out of range [0,%d)", worker, s.cfg.Workers))
	}
	w := &s.workers[worker]
	w.mu.Lock()
	defer w.mu.Unlock()

	stale := s.t.Load() - w.prev
	s.stalenessSum.Add(stale)
	atomicMax(&s.maxStaleness, stale)

	s.mu.RLock()
	shift := s.blockShift
	for i := range g.Chunks {
		c := &g.Chunks[i]
		ml, vl := s.m[c.Layer], w.v[c.Layer]
		resid, vver := w.resid[c.Layer], w.vver[c.Layer]
		for lo := 0; lo < len(c.Idx); {
			b := int(c.Idx[lo]) >> shift
			clean := true
			hi := lo
			for ; hi < len(c.Idx) && int(c.Idx[hi])>>shift == b; hi++ {
				j := c.Idx[hi]
				vl[j] += c.Val[hi]
				if vl[j] != ml[j] {
					clean = false
				}
			}
			vver[b] = tSeen
			setResid(resid, b, !clean)
			lo = hi
		}
	}
	s.mu.RUnlock()

	w.prev = tSeen
	w.syncVer = tSeen
}

// DownHorizon reports worker k's downward synchronisation fingerprint: the
// dirty-tracking horizon of its last gather and whether the worker carries
// no residual at that horizon. Clean means v_k == M(horizon) bitwise: no
// residual bit is set, so the last gather left no float-rounding straggler
// and no suppressed Eq. 6 mass, and nothing was folded in since. Two
// workers with equal clean fingerprints therefore hold bitwise-identical
// v_k, so their next gathers against the same M produce bitwise-identical
// diffs — the property that lets the aggregator encode a downward frame
// once and serve it to every matching subscriber. The frame cache keys on
// this fingerprint plus the gather timestamp.
func (s *Server) DownHorizon(worker int) (horizon uint64, clean bool) {
	if worker < 0 || worker >= s.cfg.Workers {
		panic(fmt.Sprintf("ps: worker %d out of range [0,%d)", worker, s.cfg.Workers))
	}
	w := &s.workers[worker]
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, bits := range w.resid {
		for _, word := range bits {
			if word != 0 {
				return w.syncVer, false
			}
		}
	}
	return w.syncVer, true
}
