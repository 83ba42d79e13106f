package ps

import (
	"fmt"
	"time"

	"dgs/internal/checkpoint"
	"dgs/internal/sparse"
)

// This file implements crash-safe snapshot capture and restore for Server
// and ShardedServer (DESIGN.md §12).
//
// Capture is incremental: the checkpoint.State acts as the accumulating
// snapshot buffer — its CapturedT horizon records the clock of the previous
// capture, and the next capture copies only blocks of M stamped after it
// (mver, maintained by Push's apply phase) and blocks of each v_k stamped
// after it (vver, maintained by gatherDown), through the same copyStamped
// read Snapshot uses; MVer is copied whole. Everything else in the State is
// already bitwise-correct from the previous capture, so steady-state
// checkpoints cost O(blocks dirtied since the last one), not O(model ×
// workers).
//
// Capture quiesces the server by taking every worker mutex in index order
// and then the model read lock — the same w-before-s order Push uses, so no
// deadlock is possible — giving a consistent cut: no push is mid-flight, so
// M, every v_k, and t describe a server state that actually existed.

// NewCaptureState allocates a zeroed snapshot buffer matching this server's
// geometry. The first Capture into it copies every block ever touched
// (untouched blocks are zero on both sides already). The caller owns
// Incarnation and Seq; Capture maintains the rest.
func (s *Server) NewCaptureState() *checkpoint.State {
	st := &checkpoint.State{
		NumWorkers: s.cfg.Workers,
		BlockShift: s.blockShift,
		Shards:     make([]checkpoint.ShardState, 1),
	}
	layers := make([]int, len(s.cfg.LayerSizes))
	for i := range layers {
		layers[i] = i
	}
	initShardState(&st.Shards[0], layers, s.cfg.LayerSizes, s.cfg.Workers, s.blockShift)
	return st
}

// initShardState allocates one shard's buffers for the given layer set.
func initShardState(ss *checkpoint.ShardState, layers, sizes []int, workers int, shift uint) {
	ss.Layers = append([]int(nil), layers...)
	ss.Sizes = append([]int(nil), sizes...)
	ss.M = zeroModel(sizes)
	ss.MVer = make([][]uint64, len(sizes))
	for i, n := range sizes {
		ss.MVer[i] = make([]uint64, sparse.NumBlocks(n, shift))
	}
	ss.Workers = make([]checkpoint.WorkerState, workers)
	for k := range ss.Workers {
		ss.Workers[k].V = zeroModel(sizes)
	}
}

// Capture snapshots the server into st, copying only blocks dirtied since
// st's previous capture. st must come from NewCaptureState or from a
// checkpoint this server was restored from (Restore guarantees the server
// matches the State exactly, so incremental capture continues seamlessly).
func (s *Server) Capture(st *checkpoint.State) (checkpoint.CaptureStats, error) {
	if len(st.Shards) != 1 {
		return checkpoint.CaptureStats{}, fmt.Errorf("ps: capture state has %d shards, server is unsharded", len(st.Shards))
	}
	if err := s.checkShardGeometry(&st.Shards[0], st.NumWorkers, st.BlockShift); err != nil {
		return checkpoint.CaptureStats{}, err
	}
	cs := s.captureInto(&st.Shards[0])
	st.WallNano = time.Now().UnixNano()
	checkpoint.ObserveCapture(cs)
	return cs, nil
}

// checkShardGeometry validates a shard buffer against this server's layout.
func (s *Server) checkShardGeometry(ss *checkpoint.ShardState, workers int, shift uint) error {
	if workers != s.cfg.Workers {
		return fmt.Errorf("ps: snapshot has %d workers, server has %d", workers, s.cfg.Workers)
	}
	if shift != s.blockShift {
		return fmt.Errorf("ps: snapshot block shift %d, server uses %d", shift, s.blockShift)
	}
	if len(ss.Sizes) != len(s.cfg.LayerSizes) {
		return fmt.Errorf("ps: snapshot has %d layers, server has %d", len(ss.Sizes), len(s.cfg.LayerSizes))
	}
	for i, n := range s.cfg.LayerSizes {
		if ss.Sizes[i] != n {
			return fmt.Errorf("ps: snapshot layer %d has %d elements, server has %d", i, ss.Sizes[i], n)
		}
	}
	if len(ss.Workers) != s.cfg.Workers {
		return fmt.Errorf("ps: snapshot has state for %d workers, server has %d", len(ss.Workers), s.cfg.Workers)
	}
	return nil
}

// captureInto copies this server's dirty state into ss and advances its
// horizon. Geometry must be pre-validated.
func (s *Server) captureInto(ss *checkpoint.ShardState) checkpoint.CaptureStats {
	// Quiesce: all worker locks in index order, then the model read lock
	// (same w→s order as Push, see file comment).
	for k := range s.workers {
		s.workers[k].mu.Lock()
	}
	defer func() {
		for k := len(s.workers) - 1; k >= 0; k-- {
			s.workers[k].mu.Unlock()
		}
	}()
	s.mu.RLock()
	defer s.mu.RUnlock()

	var cs checkpoint.CaptureStats
	tally := func(ver []uint64, blocks, elems int) {
		cs.BlocksCopied += uint64(blocks)
		cs.BlocksSkipped += uint64(len(ver) - blocks)
		cs.Bytes += 4 * uint64(elems)
	}
	t := s.t.Load()
	since := ss.CapturedT
	for layer, ml := range s.m {
		copy(ss.MVer[layer], s.mver[layer])
		blocks, elems := copyStamped(ss.M[layer], ml, s.mver[layer], since, s.blockShift)
		tally(s.mver[layer], blocks, elems)
	}
	for k := range s.workers {
		w := &s.workers[k]
		sw := &ss.Workers[k]
		sw.Prev = w.prev
		sw.Epoch = w.epoch.Load()
		for layer, vl := range w.v {
			blocks, elems := copyStamped(sw.V[layer], vl, w.vver[layer], since, s.blockShift)
			tally(w.vver[layer], blocks, elems)
		}
	}
	ss.T = t
	ss.CapturedT = t
	return cs
}

// restoreFrom installs a shard snapshot into this (freshly built) server.
// Geometry must be pre-validated. Every v-block is stamped with the State's
// clock: captures into the State itself (horizon T) skip them, as the
// server matches it exactly, while a fresh NewCaptureState (horizon 0)
// copies them — the checkpoint does not persist vver, and a zero stamp
// would leave the restored v_k out of every later fresh capture.
//
// Nor does it persist the gather's dirty tracking. Every worker's horizon
// stays at 0 and every block an apply ever touched (mver ≠ 0) gets its
// residual bit, so the next gather rescans exactly those blocks
// (never-touched ones hold M == 0 == v_k), and DownHorizon reports no
// worker holding a touched block as clean: the file does not say at which
// horizon each v_k last matched M, so no two restored workers can prove
// their v_k equal. A worker reconnecting after a restart is resynced
// anyway, so the rescan costs nothing in practice.
func (s *Server) restoreFrom(ss *checkpoint.ShardState) {
	for layer := range s.m {
		copy(s.m[layer], ss.M[layer])
		copy(s.mver[layer], ss.MVer[layer])
	}
	s.t.Store(ss.T)
	s.pushes.Store(ss.T)
	for k := range s.workers {
		w := &s.workers[k]
		sw := &ss.Workers[k]
		w.prev = sw.Prev
		w.epoch.Store(sw.Epoch)
		for layer, ver := range s.mver {
			copy(w.v[layer], sw.V[layer])
			for b, v := range ver {
				setResid(w.resid[layer], b, v != 0)
				w.vver[layer][b] = ss.T
			}
		}
	}
}

// RestoreServer rebuilds an unsharded server from a checkpoint. The
// configuration must describe the same geometry the checkpoint was taken
// with (layer sizes, worker count); compression flags are free to differ —
// they shape future exchanges, not stored state. The block shift is stored
// state: an auto-tuned configuration (BlockShift == 0) adopts the
// checkpoint's, whatever the auto rule would pick for cfg today, and only an
// explicit, different BlockShift is rejected.
func RestoreServer(cfg Config, st *checkpoint.State) (*Server, error) {
	if len(st.Shards) != 1 {
		return nil, fmt.Errorf("ps: checkpoint has %d shards, want 1 for an unsharded server", len(st.Shards))
	}
	if cfg.BlockShift == 0 {
		cfg.BlockShift = st.BlockShift
	}
	s := NewServer(cfg)
	if err := s.checkShardGeometry(&st.Shards[0], st.NumWorkers, st.BlockShift); err != nil {
		return nil, err
	}
	for i, gl := range st.Shards[0].Layers {
		if gl != i {
			return nil, fmt.Errorf("ps: checkpoint shard 0 lists layer %d at position %d", gl, i)
		}
	}
	s.restoreFrom(&st.Shards[0])
	return s, nil
}

// NewCaptureState allocates a zeroed multi-shard snapshot buffer matching
// this sharded server's layer placement.
func (s *ShardedServer) NewCaptureState() *checkpoint.State {
	st := &checkpoint.State{
		NumWorkers: len(s.split),
		BlockShift: s.shards[0].blockShift,
		Shards:     make([]checkpoint.ShardState, len(s.shards)),
	}
	for sh, shard := range s.shards {
		initShardState(&st.Shards[sh], s.globalOf[sh], shard.cfg.LayerSizes, shard.cfg.Workers, shard.blockShift)
	}
	return st
}

// Capture snapshots every shard into st. Shards are captured one after
// another, each at its own consistent cut; a logical push split across
// shards may land in the snapshot on some shards and not others. That is
// safe: a snapshot is only ever used after a server restart, where every
// reconnecting worker is forced through Resync (incarnation fencing), which
// re-establishes Eq. 5 per shard from the restored M.
func (s *ShardedServer) Capture(st *checkpoint.State) (checkpoint.CaptureStats, error) {
	if len(st.Shards) != len(s.shards) {
		return checkpoint.CaptureStats{}, fmt.Errorf("ps: capture state has %d shards, server has %d", len(st.Shards), len(s.shards))
	}
	var cs checkpoint.CaptureStats
	for sh, shard := range s.shards {
		ss := &st.Shards[sh]
		if err := shard.checkShardGeometry(ss, st.NumWorkers, st.BlockShift); err != nil {
			return checkpoint.CaptureStats{}, fmt.Errorf("shard %d: %w", sh, err)
		}
		if err := checkLayerPlacement(ss.Layers, s.globalOf[sh], sh); err != nil {
			return checkpoint.CaptureStats{}, err
		}
		cs.Add(shard.captureInto(ss))
	}
	st.WallNano = time.Now().UnixNano()
	checkpoint.ObserveCapture(cs)
	return cs, nil
}

func checkLayerPlacement(got, want []int, sh int) error {
	if len(got) != len(want) {
		return fmt.Errorf("ps: checkpoint shard %d owns %d layers, server places %d", sh, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("ps: checkpoint shard %d has layer %d at position %d, server places layer %d", sh, got[i], i, want[i])
		}
	}
	return nil
}

// RestoreShardedServer rebuilds a sharded server from a checkpoint. The
// shard count and the deterministic cost-model LPT layer placement must
// match the checkpoint's (same cfg.LayerSizes and shard count reproduce it).
// Like RestoreServer, an auto-tuned configuration adopts the checkpoint's
// block shift.
func RestoreShardedServer(cfg Config, numShards int, st *checkpoint.State) (*ShardedServer, error) {
	if cfg.BlockShift == 0 {
		cfg.BlockShift = st.BlockShift
	}
	s := NewShardedServer(cfg, numShards)
	if len(st.Shards) != len(s.shards) {
		return nil, fmt.Errorf("ps: checkpoint has %d shards, server built %d", len(st.Shards), len(s.shards))
	}
	for sh, shard := range s.shards {
		ss := &st.Shards[sh]
		if err := shard.checkShardGeometry(ss, st.NumWorkers, st.BlockShift); err != nil {
			return nil, fmt.Errorf("shard %d: %w", sh, err)
		}
		if err := checkLayerPlacement(ss.Layers, s.globalOf[sh], sh); err != nil {
			return nil, err
		}
	}
	for sh, shard := range s.shards {
		shard.restoreFrom(&st.Shards[sh])
	}
	// Reset each worker's wrapper-level staleness baseline to the restored
	// clock, mirroring what restoreFrom does with prev(k) per shard.
	clock := s.Timestamp()
	for k := range s.prevClock {
		s.prevClock[k] = clock
	}
	return s, nil
}
