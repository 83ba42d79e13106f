package ps

import (
	"fmt"
	"sync"

	"dgs/internal/sparse"
)

// BaselineServer is the frozen pre-dirty-tracking parameter server: one
// global mutex around the whole exchange and a full-model scan computing
// G = M − v_k on every push. It is kept verbatim (modulo telemetry, which it
// never registers) as the reference the Push equivalence tests drive
// identical schedules through, requiring bitwise-identical results from
// Server: the dirty-range diff and the decomposed locking are pure
// optimisations. It lives in a test file because nothing else calls it.
//
// Do not "improve" this type; it is a correctness reference.
type BaselineServer struct {
	cfg Config

	mu    sync.Mutex
	m     [][]float32   // M: accumulation of updates
	v     [][][]float32 // v[k]: accumulation of differences sent to worker k
	prev  []uint64      // prev(k): server timestamp at worker k's last exchange
	epoch []uint64      // epoch(k): incarnation counter, bumped on Resync
	t     uint64        // timestamp: number of updates applied
	stats Stats

	// scratch for difference computation, reused under the lock
	diff [][]float32
	// downward-update scratch, one per worker (see Server.down).
	down     []sparse.Update
	denseIdx []int32 // 0..maxLayer-1, shared by all dense gathers
	nzIdx    []int32 // nonzero-position scratch, reused under the lock
	sel      sparse.Selector
}

// NewBaselineServer builds the frozen single-mutex server.
func NewBaselineServer(cfg Config) *BaselineServer {
	if cfg.Workers < 1 {
		panic("ps: need at least one worker")
	}
	if cfg.Secondary && (cfg.SecondaryRatio <= 0 || cfg.SecondaryRatio > 1) {
		panic(fmt.Sprintf("ps: secondary ratio %v out of (0,1]", cfg.SecondaryRatio))
	}
	s := &BaselineServer{cfg: cfg}
	alloc := func() [][]float32 {
		out := make([][]float32, len(cfg.LayerSizes))
		for i, n := range cfg.LayerSizes {
			out[i] = make([]float32, n)
		}
		return out
	}
	s.m = alloc()
	s.diff = alloc()
	s.v = make([][][]float32, cfg.Workers)
	for k := range s.v {
		s.v[k] = alloc()
	}
	s.prev = make([]uint64, cfg.Workers)
	s.epoch = make([]uint64, cfg.Workers)
	s.down = make([]sparse.Update, cfg.Workers)
	maxLayer := 0
	for _, n := range cfg.LayerSizes {
		if n > maxLayer {
			maxLayer = n
		}
	}
	s.denseIdx = make([]int32, maxLayer)
	for i := range s.denseIdx {
		s.denseIdx[i] = int32(i)
	}
	return s
}

// Resync resets worker k's server-side state (see Server.Resync).
func (s *BaselineServer) Resync(worker int) {
	if worker < 0 || worker >= s.cfg.Workers {
		panic(fmt.Sprintf("ps: worker %d out of range [0,%d)", worker, s.cfg.Workers))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, layer := range s.v[worker] {
		for j := range layer {
			layer[j] = 0
		}
	}
	s.prev[worker] = s.t
	s.epoch[worker]++
	s.stats.Resyncs++
}

// Epoch returns worker k's incarnation counter.
func (s *BaselineServer) Epoch(worker int) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch[worker]
}

// Push is the frozen single-mutex exchange: the whole apply + full-model
// diff + gather runs inside one critical section.
func (s *BaselineServer) Push(worker int, g *sparse.Update) (sparse.Update, uint64) {
	if worker < 0 || worker >= s.cfg.Workers {
		panic(fmt.Sprintf("ps: worker %d out of range [0,%d)", worker, s.cfg.Workers))
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	stale := s.t - s.prev[worker]
	s.stats.StalenessSum += stale
	if stale > s.stats.MaxStaleness {
		s.stats.MaxStaleness = stale
	}

	for i := range g.Chunks {
		c := &g.Chunks[i]
		sparse.Scatter(c, s.m[c.Layer], -1)
	}
	s.t++
	s.stats.Pushes++

	vk := s.v[worker]
	out := &s.down[worker]
	out.Chunks = out.Chunks[:0]
	for layer := range s.m {
		d := s.diff[layer]
		ml, vl := s.m[layer], vk[layer]
		nnz := 0
		for j := range d {
			d[j] = ml[j] - vl[j]
			if d[j] != 0 {
				nnz++
			}
		}
		if s.cfg.DenseDownward {
			c := out.NextChunk()
			sparse.GatherInto(c, layer, d, s.denseIdx[:len(d)])
			sparse.Scatter(c, vl, 1)
			continue
		}
		if nnz == 0 {
			continue
		}
		var idx []int32
		if s.cfg.Secondary {
			k := sparse.KForRatio(len(d), s.cfg.SecondaryRatio)
			if k > nnz {
				k = nnz
			}
			idx = s.sel.TopK(d, k)
		} else {
			idx = s.nzIdx[:0]
			for j, dv := range d {
				if dv != 0 {
					idx = append(idx, int32(j))
				}
			}
			s.nzIdx = idx[:0]
		}
		c := out.NextChunk()
		sparse.GatherInto(c, layer, d, idx)
		sparse.Scatter(c, vl, 1)
	}
	s.prev[worker] = s.t
	return *out, s.t
}

// Timestamp returns the current server timestamp t.
func (s *BaselineServer) Timestamp() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.t
}

// Stats returns a snapshot of the server counters.
func (s *BaselineServer) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// MSnapshot copies the current update accumulation M into dst and returns
// the timestamp of the copied state (signature kept in lockstep with
// Server.MSnapshot so equivalence drills can hold both behind one
// interface; the full-lock copy itself stays frozen).
func (s *BaselineServer) MSnapshot(dst [][]float32) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.m {
		copy(dst[i], s.m[i])
	}
	return s.t
}

// VSnapshot copies worker k's sent-accumulation v_k into dst.
func (s *BaselineServer) VSnapshot(worker int, dst [][]float32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.v[worker] {
		copy(dst[i], s.v[worker][i])
	}
}

// StateBytes reports server memory (M plus one v_k per worker).
func (s *BaselineServer) StateBytes() int {
	n := 0
	for _, l := range s.cfg.LayerSizes {
		n += 4 * l
	}
	return n * (1 + s.cfg.Workers)
}

// LayerSizes returns the configured layer sizes.
func (s *BaselineServer) LayerSizes() []int { return s.cfg.LayerSizes }

// MSnapshotLocked is the frozen full-copy snapshot: a full O(model) copy
// under the model read lock, stalling any concurrent Push's write section
// for the whole copy. Kept verbatim as the equivalence baseline
// TestSnapshotEquivalence cuts against, mirroring BaselineServer. Do not
// "improve" it.
func (s *Server) MSnapshotLocked(dst [][]float32) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i := range s.m {
		copy(dst[i], s.m[i])
	}
}
