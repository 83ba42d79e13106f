// Package ps implements the parameter server with Model Difference
// Tracking (paper §4.2.1, Algorithm 2).
//
// The server does not store the global model. It stores the accumulation of
// updates M (M_t = θ_t − θ_0, Eq. 2) and, per worker k, the accumulation
// v_k of everything already sent to that worker. When worker k pushes a
// sparse update g the server applies M ← M − g, computes the model
// difference G = M − v_k (Eq. 3), optionally secondary-compresses it
// (Eq. 6), sends it down, and advances v_k ← v_k + G. Without secondary
// compression v_k == M after every exchange, so the worker that applies G
// holds exactly the server model (Eq. 5): DGS without sparsification is
// ASGD.
//
// # Throughput design (dirty-range diff + lock decomposition)
//
// A naive Push serialises every exchange behind one mutex and rescans the
// entire model computing M − v_k, capping server throughput at
// ~1/(full-model scan) regardless of cores or workers. This implementation
// (see DESIGN.md §11) makes Push cost O(coordinates changed since worker k
// last synced) and lets pushes from different workers overlap:
//
//   - M carries per-layer block version stamps (sparse.MarkBlocks): the
//     diff for worker k only visits blocks whose version exceeds the
//     timestamp of k's last exchange. All other blocks still hold
//     M == v_k exactly and contribute nothing. Without secondary
//     compression the auto-tuned block is at most 64 elements (one
//     embedding row), so a gather re-reads what pushes touched and little
//     more (sparse.AutoBlockShift).
//   - The M ← M − g applies are flat-combined. A pusher appends its update
//     to the server's apply queue; whoever finds no combiner waiting
//     becomes one, takes the model write lock once, takes the queue once
//     the lock is granted — so every update that arrived while the lock
//     drained its readers rides along — and applies the queued updates one
//     by one, each with its own t+1 stamp, handing every pusher its own
//     t0. What a write-lock acquisition costs is the reader drain, not the
//     microsecond scatter, so paying it once per batch instead of once per
//     push is what keeps a 16-session fleet's gathers running side by side.
//     Per-update stamps (rather than one merged apply) keep t == Pushes,
//     per-push staleness and every float of M exactly what a serial
//     schedule of the same pushes produces.
//   - The expensive diff/gather runs under a read lock, so any number of
//     workers compute their differences concurrently.
//   - v_k, prev(k) and the downward scratch are guarded per worker;
//     statistics, the timestamp and epochs are atomics, so Stats(),
//     Timestamp() and Epoch() never contend with an in-flight push.
//
// Results are bitwise-identical to the frozen single-mutex BaselineServer
// (enforced by TestPushEquivalence): the skipped blocks are exactly those
// where the diff is provably zero. A per-worker residual bitmap keeps
// rescanning every block that still held a nonzero M − v_k after the
// worker's last gather: the rare float-rounding sliver (v_k + (M−v_k) ≠ M)
// the full scan would re-send as a tiny correction, and, under secondary
// compression (Eq. 6), the mass the Top-k left behind. The secondary gather
// is one fused pass that writes M − v_k into dense scratch while feeding the
// Top-k histogram, then one pass that emits what the selection keeps
// (DESIGN.md §13).
package ps

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"dgs/internal/sparse"
)

// Config parameterises a Server.
type Config struct {
	// LayerSizes gives the element count of each model layer.
	LayerSizes []int
	// Workers is the number of workers that will attach (ids 0..Workers-1).
	Workers int
	// Secondary enables secondary compression of the downward difference
	// (paper Algorithm 2 lines 5–11).
	Secondary bool
	// SecondaryRatio is the keep fraction per layer when Secondary is on
	// (e.g. 0.01 for the paper's 99% compression).
	SecondaryRatio float64
	// DenseDownward makes the server ship the complete model state
	// downward (vanilla ASGD's "download the whole model"). Numerically it
	// equals an uncompressed difference plus the worker's own state, but
	// the wire cost is the full dense model — this flag exists so traffic
	// accounting reflects the baseline's true cost.
	DenseDownward bool
	// BlockShift sets the dirty-tracking block size to 2^BlockShift
	// elements. 0 auto-tunes from the layer geometry and the downward path
	// (sparse.AutoBlockShift): at most 64 elements without Secondary, up to
	// 1024 with it, finer for mixed small-layer geometries so dirty
	// tracking can still resolve them. Smaller blocks skip more of the
	// model per diff at the cost of a larger version array and, under
	// Secondary, a per-block cost in both passes of the gather; the result
	// is identical either way. An explicit value wins in both modes.
	BlockShift uint
	// Quiet suppresses telemetry registration. ShardedServer sets it on its
	// inner shards and instruments at the wrapper, so one logical push is
	// counted once rather than once per shard.
	Quiet bool
}

// Stats is a snapshot of server counters. Counters are maintained with
// atomics, so a snapshot taken while pushes are in flight is monotone per
// field but not a single linearisation point across fields; quiescent reads
// (tests, shutdown summaries) are exact.
type Stats struct {
	// Pushes is the number of updates applied (the server timestamp t).
	Pushes uint64
	// StalenessSum accumulates (t − prev(k)) over pushes; divide by Pushes
	// for the mean staleness workers observe.
	StalenessSum uint64
	// MaxStaleness is the largest staleness observed.
	MaxStaleness uint64
	// Resyncs is the number of worker state resets (crash/rejoin recoveries).
	Resyncs uint64
	// DiffBlocksScanned / DiffBlocksSkipped count dirty-tracking blocks the
	// downward diff visited vs proved to hold M == v_k and skipped. Their
	// ratio is the fraction of full-model work the diff tracking eliminated.
	DiffBlocksScanned uint64
	DiffBlocksSkipped uint64
	// SecondaryCandidates counts the nonzero coordinates of M − v_k the
	// secondary (Eq. 6) Top-k selected from, summed over gathers.
	SecondaryCandidates uint64
}

// Pusher is the server-side exchange interface shared by Server and
// ShardedServer: apply a worker's update, return its model difference.
type Pusher interface {
	// Push applies the update and returns the downward difference plus a
	// monotone logical timestamp. The returned update may alias per-worker
	// server scratch: it is valid until the same worker's next Push or
	// Resync; callers that retain it longer must copy.
	Push(worker int, g *sparse.Update) (sparse.Update, uint64)
	// Resync resets a rejoining worker's server-side state (see
	// Server.Resync).
	Resync(worker int)
	// Epoch returns the worker's incarnation counter (bumped by Resync).
	Epoch(worker int) uint64
	// Stats snapshots staleness counters.
	Stats() Stats
	// StateBytes reports server memory.
	StateBytes() int
	// LayerSizes returns the model geometry.
	LayerSizes() []int
}

// workerState is everything the server keeps per worker. It is guarded by
// its own mutex: a worker's exchanges are serialised by the transport, so
// the lock is uncontended on the hot path — it exists to order Push against
// Resync/VSnapshot from other goroutines and to keep the race detector
// honest.
type workerState struct {
	mu sync.Mutex
	// v is the accumulation of differences sent to this worker.
	v [][]float32
	// prev is the server timestamp at the worker's last exchange (staleness
	// baseline).
	prev uint64
	// syncVer is the dirty-tracking horizon: every block whose version is
	// ≤ syncVer held M == v_k exactly when the worker last synchronised.
	// Resync resets it to 0 (blocks never touched still hold M == 0 == v_k,
	// everything else is rescanned, which re-ships the dense snapshot).
	syncVer uint64
	// resid[layer] is a per-block bitmap. A gather leaves a block's bit set
	// iff the block still holds a nonzero M − v_k: a float-rounding sliver
	// (v + (M−v) is not always exact) or, under secondary compression, mass
	// the Top-k did not select. FoldDown sets the bits of the blocks it
	// touches. The invariant every gather relies on: a block holding a
	// nonzero M − v_k is version-dirty (mver > syncVer) or has its bit set.
	// Set bits force a rescan, so what the full scan would re-send still
	// goes out and results stay bitwise-identical to BaselineServer.
	resid [][]uint64
	// vver[layer] stamps each dirty-tracking block of v with the timestamp
	// of the last exchange that changed it — the checkpoint analogue of
	// mver. Capture copies only v-blocks stamped after its previous
	// horizon, so steady-state checkpoints are incremental on the worker
	// state too, not just on M. Not persisted: a restore stamps every
	// block with the checkpoint's clock (see restoreFrom).
	vver [][]uint64
	// epoch is the incarnation counter, bumped on Resync. Atomic so the
	// transport's fencing reads never touch a lock.
	epoch atomic.Uint64
	// down is the downward-update scratch the Push return value aliases;
	// it lives until this worker's next exchange, so steady-state pushes
	// allocate nothing.
	down sparse.Update
	// Secondary gather scratch: sel is the Top-k selector, diff holds
	// M − v_k for one layer at a time. diff is grown on first use, to the
	// largest layer, and is all-zero between gathers (see secondaryDiff).
	sel  sparse.Selector
	diff []float32

	// Apply-queue slot (see Server.enqueue). w.mu admits one Push per worker
	// at a time, so one slot per worker is all the queue ever needs: pending
	// is the update waiting to be applied, next links the slot into the
	// queue, and applied (capacity 1) carries the pre-apply clock t0 back
	// from whichever pusher combined the batch.
	pending *sparse.Update
	next    *workerState
	applied chan uint64
}

// Server is a thread-safe DGS parameter server.
type Server struct {
	cfg        Config
	blockShift uint

	// mu orders model writes against model reads: a combiner holds the
	// write lock only for the sparse M ← M − g scatters and version bumps
	// of one batch; diff computation and MSnapshot hold the read lock, so
	// workers gather their differences concurrently.
	mu   sync.RWMutex
	m    [][]float32 // M: accumulation of updates
	mver [][]uint64  // per layer, per block: timestamp of the last apply

	t atomic.Uint64 // timestamp: number of updates applied

	// Apply queue: pushers waiting for their update to be applied, linked
	// through workerState.next in arrival order. combining is set while a
	// combiner is waiting for the write lock — it will take the whole queue
	// once the lock is granted, so later arrivals just enqueue and wait.
	qmu          sync.Mutex
	qhead, qtail *workerState
	combining    bool
	// applyBatches counts write-lock holds that applied updates, so
	// pushes/applyBatches is the mean number of updates one hold combined.
	// Not in Stats (BaselineServer has no counterpart); /metrics carries it.
	applyBatches atomic.Uint64

	// counters (see Stats)
	pushes        atomic.Uint64
	stalenessSum  atomic.Uint64
	maxStaleness  atomic.Uint64
	resyncs       atomic.Uint64
	blocksScanned atomic.Uint64
	blocksSkipped atomic.Uint64
	secCand       atomic.Uint64

	workers []workerState

	denseIdx []int32 // 0..maxLayer-1, shared read-only by all dense gathers

	met *metrics // nil when cfg.Quiet
}

// NewServer builds a server for the given configuration.
func NewServer(cfg Config) *Server {
	if cfg.Workers < 1 {
		panic("ps: need at least one worker")
	}
	if cfg.Secondary && (cfg.SecondaryRatio <= 0 || cfg.SecondaryRatio > 1) {
		panic(fmt.Sprintf("ps: secondary ratio %v out of (0,1]", cfg.SecondaryRatio))
	}
	if cfg.BlockShift == 0 {
		cfg.BlockShift = sparse.AutoBlockShift(cfg.LayerSizes, cfg.Secondary)
	}
	if cfg.BlockShift > 30 {
		panic(fmt.Sprintf("ps: block shift %d out of range (0,30]", cfg.BlockShift))
	}
	s := &Server{cfg: cfg, blockShift: cfg.BlockShift, m: zeroModel(cfg.LayerSizes)}
	s.mver = make([][]uint64, len(cfg.LayerSizes))
	maxLayer := 0
	for i, n := range cfg.LayerSizes {
		s.mver[i] = make([]uint64, sparse.NumBlocks(n, s.blockShift))
		if n > maxLayer {
			maxLayer = n
		}
	}
	s.workers = make([]workerState, cfg.Workers)
	for k := range s.workers {
		w := &s.workers[k]
		w.applied = make(chan uint64, 1)
		w.v = zeroModel(cfg.LayerSizes)
		w.resid = make([][]uint64, len(cfg.LayerSizes))
		w.vver = make([][]uint64, len(cfg.LayerSizes))
		for i := range w.resid {
			w.resid[i] = make([]uint64, (len(s.mver[i])+63)/64)
			w.vver[i] = make([]uint64, len(s.mver[i]))
		}
	}
	s.denseIdx = make([]int32, maxLayer)
	for i := range s.denseIdx {
		s.denseIdx[i] = int32(i)
	}
	if !cfg.Quiet {
		s.met = newMetrics(cfg.LayerSizes, cfg.Workers)
	}
	return s
}

// zeroModel allocates one zero slice per layer.
func zeroModel(sizes []int) [][]float32 {
	out := make([][]float32, len(sizes))
	for i, n := range sizes {
		out[i] = make([]float32, n)
	}
	return out
}

// Resync resets worker k's server-side state for a crash/rejoin: v_k is
// zeroed and the staleness baseline moves to now, so the worker's next
// exchange returns G = M − 0 = M — a dense snapshot that rebuilds a fresh
// θ0 replica into the current server model (Eq. 5 restored from scratch).
// The worker's epoch is bumped so the transport layer can fence off
// in-flight pushes from the dead incarnation; the sparse residuals that
// incarnation held are unrecoverable by design, which is why recovery
// resets to a consistent snapshot instead of trying to replay them.
func (s *Server) Resync(worker int) {
	if worker < 0 || worker >= s.cfg.Workers {
		panic(fmt.Sprintf("ps: worker %d out of range [0,%d)", worker, s.cfg.Workers))
	}
	w := &s.workers[worker]
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, layer := range w.v {
		for j := range layer {
			layer[j] = 0
		}
	}
	for _, bits := range w.resid {
		for i := range bits {
			bits[i] = 0
		}
	}
	// Stamp every v-block one past the current clock so the next Capture
	// copies the zeroed state: t never moves backwards and a capture's
	// horizon is the t it observed, so t+1 is strictly beyond any horizon
	// recorded so far.
	vstamp := s.t.Load() + 1
	for _, ver := range w.vver {
		for i := range ver {
			ver[i] = vstamp
		}
	}
	w.prev = s.t.Load()
	// syncVer 0 forces the next diff to visit every block ever touched:
	// against v_k == 0 that reconstructs the full dense snapshot, while
	// never-touched blocks still hold M == 0 == v_k and stay skippable.
	w.syncVer = 0
	w.epoch.Add(1)
	s.resyncs.Add(1)
	s.met.observeResync()
}

// Epoch returns worker k's incarnation counter.
func (s *Server) Epoch(worker int) uint64 {
	if worker < 0 || worker >= s.cfg.Workers {
		panic(fmt.Sprintf("ps: worker %d out of range [0,%d)", worker, s.cfg.Workers))
	}
	return s.workers[worker].epoch.Load()
}

// Push applies worker k's update g (M ← M − g), computes the downward model
// difference G for k, advances v_k and prev(k), and returns G together with
// the new server timestamp. It is safe for concurrent use by multiple
// workers, and pushes from different workers overlap: the sparse applies of
// pushes that arrive together share one hold of the model write lock, and
// the gathers run side by side under the read lock. The returned update
// aliases per-worker server scratch: it is valid until this worker's next
// Push or Resync, so steady-state exchanges allocate nothing. Callers that
// need to retain it longer must copy.
//
// g must fit the model geometry (sparse.Update.Validate). Push panics on
// the caller's goroutine if it does not, before the update can reach the
// apply queue; callers that decode g from outside bytes validate first and
// answer with an error.
func (s *Server) Push(worker int, g *sparse.Update) (sparse.Update, uint64) {
	if worker < 0 || worker >= s.cfg.Workers {
		panic(fmt.Sprintf("ps: worker %d out of range [0,%d)", worker, s.cfg.Workers))
	}
	if err := g.Validate(s.cfg.LayerSizes); err != nil {
		panic(fmt.Sprintf("ps: push from worker %d: %v", worker, err))
	}
	return s.push(worker, g)
}

// push is Push for an update already known to fit the geometry.
func (s *Server) push(worker int, g *sparse.Update) (sparse.Update, uint64) {
	w := &s.workers[worker]
	w.mu.Lock()
	defer w.mu.Unlock()

	// Apply the upward update: M ← M − g (Algorithm 2 line 3), through the
	// apply queue. The wait is enqueue → applied, whoever did the applying.
	var start time.Time
	if s.met != nil {
		start = time.Now()
	}
	if s.enqueue(w, g) {
		s.combine()
	}
	t0 := <-w.applied
	var lockWait time.Duration
	if s.met != nil {
		lockWait = time.Since(start)
	}

	// Staleness accounting: how many server updates happened since this
	// worker last synchronised. Atomics — no lock held.
	stale := t0 - w.prev
	s.pushes.Add(1)
	s.stalenessSum.Add(stale)
	atomicMax(&s.maxStaleness, stale)

	// Compute G = M − v_k (Eq. 3 / Algorithm 2 line 4); concurrent pushes
	// by other workers gather in parallel.
	tSeen, scanned, skipped, cand := s.gatherDown(w)
	s.met.observePush(worker, stale, uint64(g.NNZ()), uint64(w.down.NNZ()), lockWait, scanned, skipped, cand)
	return w.down, tSeen
}

// enqueue appends w's update to the apply queue and reports whether the
// caller must combine: true for the first arrival since the last batch was
// taken, false for everyone who finds a combiner already waiting.
func (s *Server) enqueue(w *workerState, g *sparse.Update) (lead bool) {
	w.pending, w.next = g, nil
	s.qmu.Lock()
	if s.qtail == nil {
		s.qhead = w
	} else {
		s.qtail.next = w
	}
	s.qtail = w
	lead = !s.combining
	s.combining = true
	s.qmu.Unlock()
	return lead
}

// combine applies one batch: everything queued by the time the write lock
// is granted, in arrival order, each update with its own stamp. The queue
// is taken after the lock, not before, so pushes that arrived while the
// lock drained its readers join this batch instead of paying for a drain
// of their own; clearing combining in the same step makes the next arrival
// the next batch's combiner. Every queued update passed Validate on its own
// pusher's goroutine, so nothing here can panic and strand the followers.
// Pushers are released only after the unlock: they go straight to RLock.
func (s *Server) combine() {
	s.mu.Lock()
	s.qmu.Lock()
	batch := s.qhead
	s.qhead, s.qtail, s.combining = nil, nil, false
	s.qmu.Unlock()

	t0 := s.t.Load()
	t := t0
	for w := batch; w != nil; w = w.next {
		t++
		s.applyLocked(w.pending, -1, t)
	}
	s.t.Store(t)
	s.mu.Unlock()

	s.applyBatches.Add(1)
	s.met.observeBatch(t - t0)
	for w := batch; w != nil; t0++ {
		// A released pusher may re-enqueue at once and rewrite its link.
		next := w.next
		w.applied <- t0
		w = next
	}
}

// applyLocked folds scale·g into M and stamps the touched blocks. The caller
// holds the model write lock and has validated g.
func (s *Server) applyLocked(g *sparse.Update, scale float32, stamp uint64) {
	for i := range g.Chunks {
		c := &g.Chunks[i]
		sparse.Scatter(c, s.m[c.Layer], scale)
		sparse.MarkBlocks(s.mver[c.Layer], c.Idx, stamp, s.blockShift)
	}
}

// gatherDown assembles the downward update for w into w.down, records it in
// v_k, and moves w's horizons to the clock it saw. The caller holds w.mu;
// gatherDown takes the model read lock itself, so gathers of different
// workers run side by side. tSeen is the timestamp whose applies are fully
// visible to the read section (every apply completes under the write lock
// before t advances): the horizon v_k is synchronised to afterwards, and the
// stamp written into w.vver for every v-block this gather changes — strictly
// greater than any capture horizon recorded before the gather began.
func (s *Server) gatherDown(w *workerState) (tSeen, scanned, skipped, cand uint64) {
	s.mu.RLock()
	tSeen = s.t.Load()
	since := w.syncVer
	out := &w.down
	out.Chunks = out.Chunks[:0]
	for layer := range s.m {
		ml, vl := s.m[layer], w.v[layer]
		if s.cfg.DenseDownward {
			// Ship every coordinate (whole-model download semantics). Any of
			// them may have changed v, so stamp the whole layer.
			denseDiff(out.NextChunk(), layer, ml, vl, s.denseIdx)
			for b := range w.vver[layer] {
				w.vver[layer][b] = tSeen
			}
			continue
		}
		c := out.NextChunk()
		var sc, sk uint64
		if s.cfg.Secondary {
			// Keep only the top R% of |G| for this layer; the remainder stays
			// implicit in M − v_k and is transmitted once it grows large
			// enough (Eq. 6).
			var nnz uint64
			sc, sk, nnz = s.secondaryDiff(w, c, layer, since, tSeen)
			cand += nnz
		} else {
			sc, sk = sparseDiff(c, layer, ml, vl, s.mver[layer], w.resid[layer], w.vver[layer], since, tSeen, s.blockShift)
		}
		scanned += sc
		skipped += sk
		if len(c.Idx) == 0 {
			// No difference in this layer: match the full scan, which emits
			// no chunk (the popped slot's storage stays pooled).
			out.Chunks = out.Chunks[:len(out.Chunks)-1]
		}
	}
	s.mu.RUnlock()

	w.prev = tSeen
	w.syncVer = tSeen
	s.blocksScanned.Add(scanned)
	s.blocksSkipped.Add(skipped)
	if s.cfg.Secondary {
		s.secCand.Add(cand)
	}
	return tSeen, scanned, skipped, cand
}

// denseDiff fills c with the complete difference ml − vl (every coordinate,
// ASGD whole-model semantics) and folds it into vl. Identical output to the
// full-scan GatherInto + Scatter pair, with one pass over the layer.
func denseDiff(c *sparse.Chunk, layer int, ml, vl []float32, denseIdx []int32) {
	c.Layer = layer
	c.Idx = append(c.Idx[:0], denseIdx[:len(ml)]...)
	if cap(c.Val) < len(ml) {
		c.Val = make([]float32, len(ml))
	}
	c.Val = c.Val[:len(ml)]
	for j := range ml {
		dv := ml[j] - vl[j]
		c.Val[j] = dv
		vl[j] += dv
	}
}

// sparseDiff appends the nonzero coordinates of ml − vl (ascending) into c
// and folds them into vl, visiting only blocks whose version exceeds since
// or whose residual bit is set. Skipped blocks are exactly those where
// vl == ml held at the worker's last exchange and no apply has touched them
// since — their difference is provably zero. The residual bitmap tracks the
// one exception: float addition can round v + (M−v) away from M, and the
// full scan would re-send that sliver next time, so such blocks stay marked
// until a rescan observes vl == ml for every coordinate.
func sparseDiff(c *sparse.Chunk, layer int, ml, vl []float32, ver, resid, vver []uint64, since, stamp uint64, shift uint) (scanned, skipped uint64) {
	c.Layer = layer
	c.Idx = c.Idx[:0]
	c.Val = c.Val[:0]
	for b := range ver {
		if !dirty(ver, resid, b, since) {
			skipped++
			continue
		}
		scanned++
		lo, hi := sparse.BlockSpan(b, shift, len(ml))
		sent := len(c.Idx)
		left := false
		for j := lo; j < hi; j++ {
			dv := ml[j] - vl[j]
			if dv != 0 {
				c.Idx = append(c.Idx, int32(j))
				c.Val = append(c.Val, dv)
				vl[j] += dv
				left = left || vl[j] != ml[j]
			}
		}
		if len(c.Idx) > sent {
			vver[b] = stamp
		}
		setResid(resid, b, left)
	}
	return scanned, skipped
}

// secondaryDiff is sparseDiff under Eq. 6: of the nonzero coordinates of
// ml − vl it appends only the top R% of the layer (descending sparse.Rank,
// ties to the lower coordinate) into c, ascending, and folds those into vl;
// the rest stays in M − v_k as suppressed residual for a later exchange.
// It reports blocks scanned and skipped and the nonzeros selected from.
//
// Pass 1 writes d = ml − vl of every block sparseDiff would visit into the
// worker's dense scratch, feeds the selector's first histogram level and
// counts nonzeros branch-free. A skipped block holds M == v_k (the resid
// invariant), so it enters the histogram as a count of zeros, unread. The
// Cut then resolves k = min(KForRatio, nnz) over d. Pass 2 revisits the
// same blocks — a block's resid bit is read before pass 2 rewrites it —
// emits what the Cut keeps, folds it into vl, re-zeroes d behind it, and
// leaves each block's bit set iff a nonzero M − v_k remains there. Same d,
// same k, same Cut, same ascending emit and same v += d as BaselineServer's
// full-scan TopK: the chunk and v_k are bitwise its.
func (s *Server) secondaryDiff(w *workerState, c *sparse.Chunk, layer int, since, stamp uint64) (scanned, skipped, nnz uint64) {
	const absMask = 0x7fffffff
	ml, vl := s.m[layer], w.v[layer]
	ver, resid, vver := s.mver[layer], w.resid[layer], w.vver[layer]
	if len(w.diff) < len(ml) {
		w.diff = make([]float32, len(ml))
	}
	d := w.diff[:len(ml)]
	h := w.sel.Begin(len(d))
	for b := range ver {
		lo, hi := sparse.BlockSpan(b, s.blockShift, len(ml))
		if !dirty(ver, resid, b, since) {
			skipped++
			h.AddZeros(hi - lo)
			continue
		}
		scanned++
		for j := lo; j < hi; j++ {
			dv := ml[j] - vl[j]
			d[j] = dv
			h.Add(dv)
			// 1 iff |dv| has a nonzero bit: ±0 count 0, NaN counts 1.
			nnz += uint64((math.Float32bits(dv)&absMask + absMask) >> 31)
		}
	}
	var cut sparse.Cut // selects nothing: a layer without nonzeros ships nothing
	if k := min(sparse.KForRatio(len(ml), s.cfg.SecondaryRatio), int(nnz)); k > 0 {
		cut = w.sel.Cut(d, k)
	}

	c.Layer = layer
	c.Idx = c.Idx[:0]
	c.Val = c.Val[:0]
	for b := range ver {
		if !dirty(ver, resid, b, since) {
			continue
		}
		lo, hi := sparse.BlockSpan(b, s.blockShift, len(ml))
		sent := len(c.Idx)
		left := false
		for j := lo; j < hi; j++ {
			dv := d[j]
			d[j] = 0
			if cut.Keeps(dv, int32(j)) {
				c.Idx = append(c.Idx, int32(j))
				c.Val = append(c.Val, dv)
				vl[j] += dv
				dv = ml[j] - vl[j]
			}
			left = left || dv != 0
		}
		if len(c.Idx) > sent {
			vver[b] = stamp
		}
		setResid(resid, b, left)
	}
	return scanned, skipped, nnz
}

// dirty reports whether a gather must visit block b: an apply stamped it
// after the worker's horizon since, or it held residual M − v_k afterwards.
func dirty(ver, resid []uint64, b int, since uint64) bool {
	return ver[b] > since || resid[b>>6]&(1<<uint(b&63)) != 0
}

// setResid sets or clears block b's residual bit.
func setResid(resid []uint64, b int, on bool) {
	if on {
		resid[b>>6] |= 1 << uint(b&63)
	} else {
		resid[b>>6] &^= 1 << uint(b&63)
	}
}

// atomicMax raises v to x if x is larger (CAS loop; no-op when not).
func atomicMax(v *atomic.Uint64, x uint64) {
	for {
		old := v.Load()
		if x <= old || v.CompareAndSwap(old, x) {
			return
		}
	}
}

// Timestamp returns the current server timestamp t (lock-free, so
// transport-layer epoch fencing and monitoring never contend with pushes).
func (s *Server) Timestamp() uint64 { return s.t.Load() }

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats {
	return Stats{
		Pushes:              s.pushes.Load(),
		StalenessSum:        s.stalenessSum.Load(),
		MaxStaleness:        s.maxStaleness.Load(),
		Resyncs:             s.resyncs.Load(),
		DiffBlocksScanned:   s.blocksScanned.Load(),
		DiffBlocksSkipped:   s.blocksSkipped.Load(),
		SecondaryCandidates: s.secCand.Load(),
	}
}

// VSnapshot copies worker k's sent-accumulation v_k into dst (for tests and
// invariant checks). See VSnapshotT for the consistency cut it takes.
func (s *Server) VSnapshot(worker int, dst [][]float32) {
	s.VSnapshotT(worker, dst)
}

// VSnapshotT copies worker k's v_k into dst at a stamped consistency cut and
// returns the server clock the copy is consistent against. It takes the same
// per-worker quiesce Capture does — the worker lock, then the model read
// lock (w→s, Push's order) — so the copy can never observe a mid-gather v_k
// and the clock cannot advance while the copy runs: the returned t is the
// exact timestamp of the state the caller received, which is what lets drain
// assertions pin "v_k at clock t" instead of "v_k at some point near t".
// (The vver stamps gatherDown maintains are what make this cut meaningful:
// every v-block is stamped with the clock of the exchange that wrote it, so
// a block stamped ≤ t is final at the returned cut.)
func (s *Server) VSnapshotT(worker int, dst [][]float32) uint64 {
	if worker < 0 || worker >= s.cfg.Workers {
		panic(fmt.Sprintf("ps: worker %d out of range [0,%d)", worker, s.cfg.Workers))
	}
	w := &s.workers[worker]
	w.mu.Lock()
	defer w.mu.Unlock()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i := range w.v {
		copy(dst[i], w.v[i])
	}
	return s.t.Load()
}

// StateBytes reports server memory: M plus one v_k per worker — the paper's
// §5.6.2 overhead of NumWorkers × model size. (Block versions add one uint64
// per block to M and to each v_k — about 3 % at 64-element blocks, less at
// coarser ones — and residual bitmaps one bit per block per worker; neither
// is counted.)
func (s *Server) StateBytes() int {
	n := 0
	for _, l := range s.cfg.LayerSizes {
		n += 4 * l
	}
	return n * (1 + s.cfg.Workers)
}

// LayerSizes returns the configured layer sizes.
func (s *Server) LayerSizes() []int { return s.cfg.LayerSizes }
