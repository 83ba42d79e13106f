package ps

import (
	"fmt"
	"sort"

	"dgs/internal/par"
	"dgs/internal/sparse"
)

// ShardedServer partitions the model's layers across several independent
// Server shards, the classic parameter-server layout (Li et al., OSDI'14,
// which the paper's PS architecture follows). Each shard owns its own lock
// and apply queue. No deployment builds one: a deployed server is one Server
// (trainer.NewServer). It stays as the two-shard server of the benchmark's
// mlp_dual_pipe workload, bitwise equal to one Server under the same pushes
// (TestShardedEquivalentToSingleServer).
//
// Shards see a consistent per-worker exchange: a push is split by layer,
// applied to every owning shard, and the downward differences are merged
// back into one update with global layer ids. The pieces of a push fan out
// through par.Each, not through a persistent pool of goroutines pinned to OS
// threads: on mlp_dual_pipe (2 cores) such a pool made two shards ≈1.35×
// slower than one.
type ShardedServer struct {
	shards []*Server
	// layerShard[l] is the shard owning global layer l; layerLocal[l] is
	// that layer's index within the shard.
	layerShard []int
	layerLocal []int
	// globalOf[sh][local] maps a shard-local layer id back to the global id.
	globalOf [][]int
	sizes    []int
	// split[k] is worker k's exchange scratch; each worker's exchanges are
	// serialised by the transport, so slots are never used concurrently.
	split []shardSplit
	// prevClock[k] is the logical clock returned at worker k's last push
	// (reset by Resync), for wrapper-level staleness telemetry. Each slot is
	// touched only on behalf of its worker, whose exchanges and resyncs the
	// transport serialises, so plain stores suffice.
	prevClock []uint64
	met       *metrics
}

// shardSplit is per-worker scratch for splitting an upward update across
// shards and merging the downward pieces back.
type shardSplit struct {
	perShard []sparse.Update
	out      sparse.Update
	// shardG/shardTS receive each shard's downward piece and timestamp from
	// the fan-out (par.Each over the shards); each slot has one writer.
	shardG  []sparse.Update
	shardTS []uint64
	// shards and worker are what pushShard needs; pushFn is sp.pushShard
	// bound once, so a push hands par.Each no fresh closure to allocate.
	shards []*Server
	worker int
	pushFn func(sh int)
}

// pushShard pushes this worker's piece of the current update to shard sh.
func (sp *shardSplit) pushShard(sh int) {
	sp.shardG[sh], sp.shardTS[sh] = sp.shards[sh].push(sp.worker, &sp.perShard[sh])
}

// NewShardedServer builds numShards shards over the given layers, placing
// layers across shards by modelled push cost — bytes applied plus
// dirty-tracking blocks scanned, not element count alone — with the classic
// LPT heuristic (heaviest layer first onto the lightest shard). Element
// count undercounts the small-layer end: a push touches every layer's
// version array and chunk bookkeeping regardless of size, so a shard
// holding many small conv layers does far more per-push work than its
// element share suggests. The placement is a pure function of the layer
// sizes and shard count. The per-shard configuration mirrors cfg (secondary
// compression, dense downward, worker count).
func NewShardedServer(cfg Config, numShards int) *ShardedServer {
	if numShards < 1 {
		panic("ps: need at least one shard")
	}
	if numShards > len(cfg.LayerSizes) {
		numShards = len(cfg.LayerSizes)
	}
	if cfg.BlockShift == 0 {
		// Resolve the auto block shift once, from the full layer set: each
		// shard seeing only its own layers would derive different shifts,
		// and checkpoint geometry validation requires one shared value.
		cfg.BlockShift = sparse.AutoBlockShift(cfg.LayerSizes, cfg.Secondary)
	}
	s := &ShardedServer{
		layerShard: make([]int, len(cfg.LayerSizes)),
		layerLocal: make([]int, len(cfg.LayerSizes)),
		sizes:      append([]int(nil), cfg.LayerSizes...),
	}
	// Per-push cost of owning a layer: fixed chunk/bookkeeping overhead,
	// per-element apply + diff work, and per-block version-scan work. The
	// weights are coarse — what matters is that small layers stop looking
	// free and block-heavy layers stop looking like pure element counts.
	cost := func(n int) int { return 64 + n + 2*sparse.NumBlocks(n, cfg.BlockShift) }
	order := make([]int, len(cfg.LayerSizes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := cost(cfg.LayerSizes[order[a]]), cost(cfg.LayerSizes[order[b]])
		if ca != cb {
			return ca > cb
		}
		return order[a] < order[b]
	})
	load := make([]int, numShards)
	for _, l := range order {
		lightest := 0
		for i := 1; i < numShards; i++ {
			if load[i] < load[lightest] {
				lightest = i
			}
		}
		s.layerShard[l] = lightest
		load[lightest] += cost(cfg.LayerSizes[l])
	}
	// Each shard lists its layers in ascending global id, whatever order LPT
	// placed them in: that is the order checkpoint.Decode rebuilds a shard's
	// layer list in, so a sharded checkpoint restores.
	shardLayers := make([][]int, numShards)
	s.globalOf = make([][]int, numShards)
	for l, sh := range s.layerShard {
		s.layerLocal[l] = len(shardLayers[sh])
		shardLayers[sh] = append(shardLayers[sh], cfg.LayerSizes[l])
		s.globalOf[sh] = append(s.globalOf[sh], l)
	}
	for i := 0; i < numShards; i++ {
		sc := cfg
		sc.Quiet = true // the wrapper instruments logical pushes itself
		sc.LayerSizes = shardLayers[i]
		if len(sc.LayerSizes) == 0 {
			// Guaranteed non-empty by the numShards clamp above, but keep
			// the shard well-formed regardless.
			sc.LayerSizes = []int{0}
		}
		s.shards = append(s.shards, NewServer(sc))
	}
	s.split = make([]shardSplit, cfg.Workers)
	for k := range s.split {
		sp := &s.split[k]
		sp.perShard = make([]sparse.Update, numShards)
		sp.shardG = make([]sparse.Update, numShards)
		sp.shardTS = make([]uint64, numShards)
		sp.shards, sp.worker = s.shards, k
		sp.pushFn = sp.pushShard
	}
	s.prevClock = make([]uint64, cfg.Workers)
	if !cfg.Quiet {
		// The shards run Quiet, so the wrapper counts each logical push once.
		s.met = newMetrics(cfg.LayerSizes, cfg.Workers)
	}
	return s
}

// Push splits the update across shards, applies each piece, and merges the
// downward differences back into global layer ids. The returned timestamp
// is the sum of shard timestamps (a useful monotone logical clock). Like
// Server.Push, the returned update aliases per-worker scratch and is valid
// until this worker's next Push or Resync.
func (s *ShardedServer) Push(worker int, g *sparse.Update) (sparse.Update, uint64) {
	if worker < 0 || worker >= len(s.split) {
		panic(fmt.Sprintf("ps: worker %d out of range [0,%d)", worker, len(s.split)))
	}
	// Validate here, on the caller's goroutine: the pieces are applied by
	// fan-out goroutines and shard combiners, where a panic would take the
	// process down or strand other workers' pushes.
	if err := g.Validate(s.sizes); err != nil {
		panic(fmt.Sprintf("ps: push from worker %d: %v", worker, err))
	}
	// Split the upward update per shard, remapping layer ids.
	sp := &s.split[worker]
	for sh := range sp.perShard {
		sp.perShard[sh].Chunks = sp.perShard[sh].Chunks[:0]
	}
	for i := range g.Chunks {
		c := g.Chunks[i]
		sh := s.layerShard[c.Layer]
		local := c // copy the chunk header; index/value slices are shared
		local.Layer = s.layerLocal[c.Layer]
		sp.perShard[sh].Chunks = append(sp.perShard[sh].Chunks, local)
	}

	// Apply the shard pieces on every core (each shard has its own lock, and
	// this worker's result slots are private, so the fan-out's join is the
	// only coordination), then merge the downward chunks back in shard order
	// so the fan-in is deterministic regardless of completion order.
	par.Each(len(s.shards), sp.pushFn)
	sp.out.Chunks = sp.out.Chunks[:0]
	var clock uint64
	for sh := range s.shards {
		clock += sp.shardTS[sh]
		G := &sp.shardG[sh]
		for i := range G.Chunks {
			c := G.Chunks[i]
			c.Layer = s.globalOf[sh][c.Layer]
			sp.out.Chunks = append(sp.out.Chunks, c)
		}
	}
	if s.met != nil {
		// The clock (sum of shard timestamps) advances by NumShards per
		// logical push, so pushes by other workers since this worker's last
		// exchange are (Δclock / NumShards) − 1. Interleaved shard pushes
		// can skew a reading by a fraction; fine for a monitoring histogram.
		stale := float64(clock-s.prevClock[worker])/float64(len(s.shards)) - 1
		if stale < 0 {
			stale = 0
		}
		// Lock-wait, block and secondary counters live on the shards; the
		// wrapper reports zero (it holds no model lock itself) and surfaces
		// the shard values through Stats instead.
		s.met.observePush(worker, uint64(stale), uint64(g.NNZ()), uint64(sp.out.NNZ()), 0, gatherStats{})
	}
	s.prevClock[worker] = clock
	return sp.out, clock
}

// FoldDown splits the downward quantization error by owning shard and
// folds each piece into that shard's v_k (see Server.FoldDown). It runs
// between the worker's exchanges — the transport serialises them — so
// reusing the worker's split scratch is safe: Push resets it on entry, and
// the downward update Push returned lives in separate per-shard storage.
func (s *ShardedServer) FoldDown(worker int, e *sparse.Update) {
	if worker < 0 || worker >= len(s.split) {
		panic(fmt.Sprintf("ps: worker %d out of range [0,%d)", worker, len(s.split)))
	}
	if e.NNZ() == 0 {
		return
	}
	sp := &s.split[worker]
	for sh := range sp.perShard {
		sp.perShard[sh].Chunks = sp.perShard[sh].Chunks[:0]
	}
	for i := range e.Chunks {
		c := e.Chunks[i]
		if c.Layer < 0 || c.Layer >= len(s.layerShard) {
			panic(fmt.Sprintf("ps: sharded fold references layer %d of %d", c.Layer, len(s.layerShard)))
		}
		sh := s.layerShard[c.Layer]
		local := c // copy the chunk header; index/value slices are shared
		local.Layer = s.layerLocal[c.Layer]
		sp.perShard[sh].Chunks = append(sp.perShard[sh].Chunks, local)
	}
	for sh, shard := range s.shards {
		if len(sp.perShard[sh].Chunks) > 0 {
			shard.FoldDown(worker, &sp.perShard[sh])
		}
	}
}

// Resync resets the rejoining worker's state on every shard. The sharded
// exchange stays consistent because a resync happens between exchanges (the
// transport layer serialises a worker's exchanges), so no shard can see a
// push from the old incarnation afterwards.
func (s *ShardedServer) Resync(worker int) {
	var clock uint64
	for _, shard := range s.shards {
		shard.Resync(worker)
		clock += shard.Timestamp()
	}
	// Move the wrapper-level staleness baseline to now, mirroring what each
	// shard does with prev(k): without this the first post-rejoin push would
	// report the whole outage as staleness. Pushes by other workers racing
	// this read can only overshoot the baseline, and the staleness clamp at
	// zero absorbs that.
	s.prevClock[worker] = clock
	s.met.observeResync()
}

// Stats aggregates the shard counters.
func (s *ShardedServer) Stats() Stats {
	var total Stats
	for i, shard := range s.shards {
		st := shard.Stats()
		total.Pushes += st.Pushes
		total.StalenessSum += st.StalenessSum
		total.DiffBlocksScanned += st.DiffBlocksScanned
		total.DiffBlocksSkipped += st.DiffBlocksSkipped
		total.SecondaryCandidates += st.SecondaryCandidates
		if st.MaxStaleness > total.MaxStaleness {
			total.MaxStaleness = st.MaxStaleness
		}
		if i == 0 {
			// Every Resync hits all shards identically; count it once.
			total.Resyncs = st.Resyncs
		}
	}
	return total
}

// LayerSizes returns the global layer sizes.
func (s *ShardedServer) LayerSizes() []int { return s.sizes }
