package bench

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"dgs/internal/ps"
	"dgs/internal/sparse"
	"dgs/internal/tensor"
)

// ServerPoint is one measured configuration of the many-worker server
// saturation benchmark: N in-process workers hammering Push as fast as they
// can. The dirty-tracking server and the frozen single-mutex BaselineServer
// are measured in the same run on the same updates, so Speedup is
// machine-relative the way the pipeline and kernel speedups are.
type ServerPoint struct {
	Workload string `json:"workload"`
	Workers  int    `json:"workers"`
	Shards   int    `json:"shards"`

	PushesPerSec float64 `json:"pushes_per_sec"`
	P99Micros    float64 `json:"p99_push_micros"`
	// WorstWorkerP99Micros is the highest per-worker p99: the fleet-wide
	// p99 above hides a starved worker (one straggler's tail is 1/N of the
	// merged samples), this number does not.
	WorstWorkerP99Micros float64 `json:"worst_worker_p99_push_micros"`

	BaselinePushesPerSec      float64 `json:"baseline_pushes_per_sec"`
	BaselineP99Micros         float64 `json:"baseline_p99_push_micros"`
	BaselineWorstWorkerMicros float64 `json:"baseline_worst_worker_p99_push_micros"`

	// Speedup is PushesPerSec / BaselinePushesPerSec — the regression gate
	// floors the 8-worker embed row at 2×.
	Speedup float64 `json:"speedup_vs_single_mutex"`

	// ScanSkipRatio is the fraction of dirty-tracking blocks the diff proved
	// untouched and skipped (skipped / (scanned + skipped)); 0 for the
	// baseline, which always scans the full model.
	ScanSkipRatio float64 `json:"scan_skip_ratio"`

	// BlockSize is the resolved dirty-tracking block size for this point.
	// With auto block-shift it depends on the workload geometry (1024 for
	// the embed tables, 4 for the cnn layer mix), so it is per-point.
	BlockSize int `json:"block_size"`
}

// ServerReport is the many-worker saturation benchmark serialised to
// BENCH_PR7.json.
type ServerReport struct {
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// BlockSize is the embed workload's resolved block size, kept for
	// report continuity; per-workload sizes live on each ServerPoint now
	// that auto block-shift adapts to the layer geometry.
	BlockSize       int `json:"block_size"`
	PushesPerWorker int `json:"pushes_per_worker"`

	Results []ServerPoint `json:"results"`

	// SpeedupAt8 is the gated number: the embed workload's 8-worker speedup
	// over the single-mutex baseline, measured in this run.
	SpeedupAt8 float64 `json:"speedup_embed_8_workers"`

	// CNNScanSkipRatio is the second gated number: the cnn workload's
	// scan/skip ratio. With the fixed 1024-element default blocks the
	// dominant 65536-element layer kept every block dirty (ratio ~0.001);
	// auto block-shift resolves the mixed geometry finely enough that the
	// diff proves most blocks untouched.
	CNNScanSkipRatio float64 `json:"cnn_scan_skip_ratio"`

	// Snapshot-stall columns: the embed 8-worker workload measured with
	// concurrent full-model scrapers, once against the frozen full-lock
	// snapshot path (MSnapshotLocked — every cut parks the apply path for
	// an O(model) copy) and once against the copy-on-version engine
	// (MSnapshot). The ratio is gated in the read-path report
	// (BENCH_PR10.json, dgs-benchdiff -read); here it is tracked for
	// visibility alongside the other server columns.
	SnapStallLockedPushesPerSec float64 `json:"snap_stall_locked_pushes_per_sec"`
	SnapStallLockedP99Micros    float64 `json:"snap_stall_locked_p99_push_micros"`
	SnapStallCopyPushesPerSec   float64 `json:"snap_stall_copy_pushes_per_sec"`
	SnapStallCopyP99Micros      float64 `json:"snap_stall_copy_p99_push_micros"`
	SnapStallSpeedup            float64 `json:"snap_stall_speedup"`
}

// Embed workload geometry: four embedding tables, row-clustered sparse
// updates. Each push samples embedRowsPerPush (table, row) pairs and updates
// whole embedRowWidth-element rows — the access pattern of embedding-heavy
// recommendation models, where any single push touches a tiny, block-aligned
// slice of a huge table. This is the regime dirty-range tracking targets:
// the diff for a worker visits only the blocks other workers' rows landed
// in, a few percent of the model, while the baseline rescans every element.
const (
	embedTables      = 4
	embedTableSize   = 1 << 19 // 524288 elements per table (~2M params total)
	embedRowWidth    = 64
	embedRowsPerPush = 64
)

// cnnSizes mirrors the ps package's benchmark geometry (a small conv net's
// layer sizes): many small layers plus one dominant 65536-element block.
// With uniform top-1% updates and fixed 1024-element blocks nearly every
// block of the big layer stayed dirty; auto block-shift now resolves this
// geometry at 4-element blocks and the scan/skip ratio is gated.
var cnnSizes = []int{864, 32, 9216, 32, 18432, 64, 65536, 128, 1280, 10}

// serverTarget is the common surface of ps.Server, ps.ShardedServer and
// ps.BaselineServer the saturation harness drives.
type serverTarget interface {
	Push(worker int, g *sparse.Update) (sparse.Update, uint64)
	Stats() ps.Stats
}

// embedUpdates pre-generates variants cycled by each worker so update
// construction stays out of the measured loop. Indices are deduped per table
// and ascending, as the wire contract requires.
func embedUpdates(rng *tensor.RNG, workers, variants int) [][]sparse.Update {
	out := make([][]sparse.Update, workers)
	rows := make(map[[2]int]struct{}, embedRowsPerPush)
	for k := range out {
		out[k] = make([]sparse.Update, variants)
		for v := range out[k] {
			for t := range rows {
				delete(rows, t)
			}
			for len(rows) < embedRowsPerPush {
				rows[[2]int{rng.Intn(embedTables), rng.Intn(embedTableSize / embedRowWidth)}] = struct{}{}
			}
			perTable := make([][]int, embedTables)
			for tr := range rows {
				perTable[tr[0]] = append(perTable[tr[0]], tr[1])
			}
			u := &out[k][v]
			for table, trs := range perTable {
				if len(trs) == 0 {
					continue
				}
				sort.Ints(trs)
				c := u.NextChunk()
				c.Layer = table
				for _, r := range trs {
					base := int32(r * embedRowWidth)
					for j := int32(0); j < embedRowWidth; j++ {
						c.Idx = append(c.Idx, base+j)
					}
				}
				c.Val = make([]float32, len(c.Idx))
				rng.FillNormal(c.Val, 0, 0.01)
			}
		}
	}
	return out
}

func embedLayerSizes() []int {
	sizes := make([]int, embedTables)
	for i := range sizes {
		sizes[i] = embedTableSize
	}
	return sizes
}

// cnnUpdates pre-generates uniform top-1% updates over the conv-net
// geometry.
func cnnUpdates(rng *tensor.RNG, workers, variants int) [][]sparse.Update {
	out := make([][]sparse.Update, workers)
	dense := make([][]float32, len(cnnSizes))
	for i, n := range cnnSizes {
		dense[i] = make([]float32, n)
	}
	for k := range out {
		out[k] = make([]sparse.Update, variants)
		for v := range out[k] {
			for _, l := range dense {
				rng.FillNormal(l, 0, 1)
			}
			out[k][v] = sparse.SparsifyLayers(dense, 0.01)
		}
	}
	return out
}

// runSaturation drives N worker goroutines through pushesPerWorker
// exchanges each against srv and reports aggregate pushes/sec, the p99
// per-push latency across all workers, and the worst single worker's p99
// (the straggler detector — a starved worker's tail vanishes into the
// merged percentile). Two unmeasured warm-up pushes per worker populate the
// per-worker server scratch first; a barrier then releases all workers at
// once.
func runSaturation(srv serverTarget, updates [][]sparse.Update, workers, pushesPerWorker int) (pushesPerSec, p99Micros, worstWorkerP99Micros float64) {
	for k := 0; k < workers; k++ {
		for i := 0; i < 2; i++ {
			srv.Push(k, &updates[k][i%len(updates[k])])
		}
	}

	lat := make([][]time.Duration, workers)
	for k := range lat {
		lat[k] = make([]time.Duration, 0, pushesPerWorker)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			vars := updates[k]
			<-start
			for i := 0; i < pushesPerWorker; i++ {
				t0 := time.Now()
				srv.Push(k, &vars[i%len(vars)])
				lat[k] = append(lat[k], time.Since(t0))
			}
		}(k)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	wall := time.Since(t0)

	merged := make([]time.Duration, 0, workers*pushesPerWorker)
	worst := time.Duration(0)
	for k := range lat {
		merged = append(merged, lat[k]...)
		if p := p99Of(lat[k]); p > worst {
			worst = p
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
	p99 := merged[(len(merged)*99)/100-1]
	return float64(workers*pushesPerWorker) / wall.Seconds(),
		float64(p99) / float64(time.Microsecond),
		float64(worst) / float64(time.Microsecond)
}

// p99Of sorts a copy of one worker's latency samples and returns their p99.
func p99Of(lat []time.Duration) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	s := make([]time.Duration, len(lat))
	copy(s, lat)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := (len(s)*99)/100 - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}

// measurePoint benchmarks one (workload, workers, shards) cell: baseline
// first, then the dirty-tracking server, on identical pre-generated updates.
func measurePoint(workload string, sizes []int, updates [][]sparse.Update, workers, shards, pushesPerWorker int) ServerPoint {
	pt := ServerPoint{Workload: workload, Workers: workers, Shards: shards,
		BlockSize: 1 << sparse.AutoBlockShift(sizes, false)}

	cfg := ps.Config{LayerSizes: sizes, Workers: workers, Quiet: true}
	base := ps.NewBaselineServer(ps.Config{LayerSizes: sizes, Workers: workers})
	pt.BaselinePushesPerSec, pt.BaselineP99Micros, pt.BaselineWorstWorkerMicros = runSaturation(base, updates, workers, pushesPerWorker)

	var cur serverTarget
	if shards > 1 {
		cur = ps.NewShardedServer(cfg, shards)
	} else {
		cur = ps.NewServer(cfg)
	}
	pt.PushesPerSec, pt.P99Micros, pt.WorstWorkerP99Micros = runSaturation(cur, updates, workers, pushesPerWorker)

	st := cur.Stats()
	if total := st.DiffBlocksScanned + st.DiffBlocksSkipped; total > 0 {
		pt.ScanSkipRatio = float64(st.DiffBlocksSkipped) / float64(total)
	}
	if pt.BaselinePushesPerSec > 0 {
		pt.Speedup = pt.PushesPerSec / pt.BaselinePushesPerSec
	}
	return pt
}

// RunServer executes the many-worker server saturation benchmark.
// pushesPerWorker is each worker's measured exchange budget (0 = the
// 256-push default; the CI smoke run uses a much smaller budget and only
// sanity-checks the report shape).
func RunServer(pushesPerWorker int) (*ServerReport, error) {
	if pushesPerWorker <= 0 {
		pushesPerWorker = 256
	}
	const variants = 4
	rng := tensor.NewRNG(0x5E44)
	embedSizes := embedLayerSizes()

	rep := &ServerReport{
		GoVersion:       runtime.Version(),
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		BlockSize:       1 << sparse.AutoBlockShift(embedSizes, false),
		PushesPerWorker: pushesPerWorker,
	}

	// Embed workload across the worker sweep — the 8-worker row is gated.
	for _, n := range []int{1, 2, 4, 8} {
		upd := embedUpdates(rng, n, variants)
		pt := measurePoint("embed", embedSizes, upd, n, 1, pushesPerWorker)
		rep.Results = append(rep.Results, pt)
		if n == 8 {
			rep.SpeedupAt8 = pt.Speedup
		}
	}

	// Sharded embed at 8 workers: layer-parallel shards stack on top of the
	// dirty tracking (each shard has its own write lock).
	updSharded := embedUpdates(rng, 8, variants)
	rep.Results = append(rep.Results, measurePoint("embed_sharded", embedSizes, updSharded, 8, 4, pushesPerWorker))

	// CNN geometry, gated on the scan/skip ratio: uniform top-1% updates
	// left nearly every 1024-element block of the dominant layer dirty
	// (ratio ~0.001 through PR 6); auto block-shift picks 4-element blocks
	// for this mixed geometry and the diff skips the majority of the model.
	updCNN := cnnUpdates(rng, 8, variants)
	ptCNN := measurePoint("cnn", cnnSizes, updCNN, 8, 1, pushesPerWorker)
	rep.Results = append(rep.Results, ptCNN)
	rep.CNNScanSkipRatio = ptCNN.ScanSkipRatio

	// Snapshot stall: the embed 8-worker saturation rerun with concurrent
	// full-model scrapers, lock path vs copy-on-version (see read.go).
	cfg := ps.Config{LayerSizes: embedSizes, Workers: 8, Quiet: true}
	updStall := embedUpdates(rng, 8, variants)
	srvLocked := ps.NewServer(cfg)
	rep.SnapStallLockedPushesPerSec, rep.SnapStallLockedP99Micros, _ =
		runScraped(srvLocked, updStall, 8, pushesPerWorker, readScrapers, embedSizes,
			func(dst [][]float32) { srvLocked.MSnapshotLocked(dst) })
	srvCopy := ps.NewServer(cfg)
	rep.SnapStallCopyPushesPerSec, rep.SnapStallCopyP99Micros, _ =
		runScraped(srvCopy, updStall, 8, pushesPerWorker, readScrapers, embedSizes,
			func(dst [][]float32) { srvCopy.MSnapshot(dst) })
	if rep.SnapStallLockedPushesPerSec > 0 {
		rep.SnapStallSpeedup = rep.SnapStallCopyPushesPerSec / rep.SnapStallLockedPushesPerSec
	}

	return rep, nil
}
