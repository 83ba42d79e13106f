package ps

import (
	"fmt"

	"dgs/internal/sparse"
)

// DownFolder is implemented by servers that can absorb downward
// quantization error into the per-worker sent-accumulation v_k. The wire
// codec layer (trainer.HandlerWithCodec) calls it after encoding a lossy
// downward frame: e holds exact − decoded per shipped coordinate, so after
// the fold v_k again tracks what the worker applied (up to one float32
// rounding per coordinate — see the exactness note on FoldDown), and the
// error re-enters M − v_k to be re-shipped by a later exchange. A server
// that does not implement the interface simply gets raw (exact) downward
// frames.
type DownFolder interface {
	FoldDown(worker int, e *sparse.Update)
}

// FoldDown subtracts the downward quantization error e from v_k. Push's
// gatherDown advanced v_k by the exact difference G, but the worker only
// received the decoded projection q = G − e; folding restores v_k to what
// was actually sent, so the withheld error stays implicit in M − v_k and is
// re-shipped by a later exchange — exactly like secondary-compression
// residual.
//
// Exactness: (v+G)−e is not always bitwise fl(v+q), so during lossy
// operation v_k may sit a rounding away from the worker's replica. The
// Eq. 5 drain invariant is unaffected: drain pushes are answered raw, and
// the server recomputes M − v_k against its own v_k each round until the
// difference is exactly zero, so v_k == M bitwise at the fixpoint
// regardless of intermediate rounding.
//
// Dirty-tracking bookkeeping mirrors what a stale v_k needs elsewhere:
// every touched block gets its residual bit set (the block may be
// version-clean, and the gather would otherwise prove its diff zero and
// skip the error forever), and its v-version stamped one past the current
// clock (same rule as Resync: strictly beyond any capture horizon recorded
// so far, so the next checkpoint copies the folded state).
//
// The transport layer serialises a worker's exchanges, so FoldDown runs
// between that worker's pushes; the locks exist to order it against
// Resync/Capture and concurrent pushes by other workers.
func (s *Server) FoldDown(worker int, e *sparse.Update) {
	if worker < 0 || worker >= s.cfg.Workers {
		panic(fmt.Sprintf("ps: worker %d out of range [0,%d)", worker, s.cfg.Workers))
	}
	if e.NNZ() == 0 {
		return
	}
	w := &s.workers[worker]
	w.mu.Lock()
	defer w.mu.Unlock()
	s.mu.RLock()
	defer s.mu.RUnlock()
	stamp := s.t.Load() + 1
	for i := range e.Chunks {
		c := &e.Chunks[i]
		if len(c.Idx) == 0 {
			continue
		}
		vl := w.v[c.Layer]
		for j, idx := range c.Idx {
			vl[idx] -= c.Val[j]
		}
		// Unconditionally marking is safe: the next rescan clears a bit
		// again if its block turns out clean.
		for _, idx := range c.Idx {
			setResid(w.resid[c.Layer], int(idx)>>s.blockShift, true)
		}
		sparse.MarkBlocks(w.vver[c.Layer], c.Idx, stamp, s.blockShift)
	}
}
