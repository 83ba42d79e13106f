package ps

import (
	"sync"

	"dgs/internal/sparse"
)

// Mirror is a subscriber's copy of an upstream server: the aggregator's
// (DESIGN.md §15) and the read replica's (§16). Its Server's M is fed only
// by the downward diffs the upstream returns to the subscriber, through
// ApplyDiff, so M(mirror) == v_k(upstream) bitwise — Eq. 5 with the
// subscriber as worker k. When the upstream forgets that v_k (a restart, a
// terminal link failure, a rebase) the mirror is void: Rebuild swaps in a
// fresh zero server and bumps the generation. The subscriber's next session
// hellos, the upstream resyncs its slot to v_k = 0, and the first downward
// frame, dense M against that zero, rebuilds the fresh server in one apply.
type Mirror struct {
	cfg Config

	mu  sync.RWMutex
	srv *Server
	gen uint64 // bumped by every Rebuild
}

// NewMirror returns a mirror with the given geometry and downstream worker
// slots; blockShift 0 auto-tunes (Config.BlockShift). The mirror server is
// Quiet: its pushes are the upstream's, already counted there.
func NewMirror(layerSizes []int, workers int, blockShift uint) *Mirror {
	m := &Mirror{cfg: Config{LayerSizes: layerSizes, Workers: workers, BlockShift: blockShift, Quiet: true}}
	m.srv = NewServer(m.cfg)
	return m
}

// Server returns the current mirror server and the generation it belongs
// to. A server from an older generation stays readable but is dead.
func (m *Mirror) Server() (*Server, uint64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.srv, m.gen
}

// Rebuild discards the mirrored state: it swaps in a fresh server and adds
// 1 to the generation.
func (m *Mirror) Rebuild() {
	fresh := NewServer(m.cfg)
	m.mu.Lock()
	m.srv, m.gen = fresh, m.gen+1
	m.mu.Unlock()
}

// Decode decodes a frame of any registered codec into u and validates it
// against the mirror's geometry. Frames are hostile input until both pass:
// ApplyDiff indexes layers and blocks without bounds checks of its own.
func (m *Mirror) Decode(u *sparse.Update, frame []byte) error {
	if err := sparse.DecodeAnyInto(u, frame); err != nil {
		return err
	}
	return u.Validate(m.cfg.LayerSizes)
}
