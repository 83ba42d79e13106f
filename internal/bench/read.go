package bench

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dgs/internal/ps"
	"dgs/internal/replica"
	"dgs/internal/sparse"
	"dgs/internal/tensor"
	"dgs/internal/trainer"
	"dgs/internal/transport"
)

// Read-path benchmark (-readbench): two measurements behind one report.
//
// Snapshot stall: 8 in-process workers saturate Push on the embed workload
// while scraper goroutines continuously cut full-model snapshots — once
// through the frozen full-lock path (MSnapshotLocked, the pre-§16
// behaviour: every snapshot parks the apply path for a full-model copy) and
// once through the copy-on-version engine (MSnapshot: readers copy only
// blocks whose mver advanced, off a shadow Push never waits on). The gated
// number is the push-throughput ratio between the two, measured in the same
// run on the same machine — the usual machine-relative methodology.
//
// Replica lag: a real dgs-replica subscribes to the server over loopback
// TCP while trainer sessions push, and the report tracks the worst observed
// poll gap (how stale the mirror ever got) plus the post-load drain: Sync
// must converge and the mirror must equal the upstream M bitwise — under a
// LOSSY subscription codec, so the Sync-time re-base path is exercised too.
type ReadReport struct {
	GoVersion       string `json:"go_version"`
	GoMaxProcs      int    `json:"gomaxprocs"`
	PushesPerWorker int    `json:"pushes_per_worker"`
	Workers         int    `json:"workers"`
	Scrapers        int    `json:"scrapers"`
	BlockSize       int    `json:"block_size"`

	// Push throughput with no scraper, as context for the stall columns.
	NoScrapePushesPerSec float64 `json:"no_scrape_pushes_per_sec"`

	// Full-lock scrape path (frozen MSnapshotLocked baseline).
	LockedPushesPerSec  float64 `json:"locked_pushes_per_sec"`
	LockedP99Micros     float64 `json:"locked_p99_push_micros"`
	LockedScrapesPerSec float64 `json:"locked_scrapes_per_sec"`

	// Copy-on-version scrape path (MSnapshot).
	CopyPushesPerSec  float64 `json:"copy_pushes_per_sec"`
	CopyP99Micros     float64 `json:"copy_p99_push_micros"`
	CopyScrapesPerSec float64 `json:"copy_scrapes_per_sec"`

	// ScrapeSpeedup is the gated number: CopyPushesPerSec over
	// LockedPushesPerSec (the CI gate floors it at 2×).
	ScrapeSpeedup float64 `json:"scrape_speedup_vs_locked"`

	// Replica subscription over loopback TCP, lossy codec.
	ReplicaCodec         string `json:"replica_codec"`
	ReplicaPolls         uint64 `json:"replica_polls"`
	ReplicaAppliedCoords uint64 `json:"replica_applied_coords"`
	ReplicaRebases       uint64 `json:"replica_rebases"`
	// MaxPollGapMillis is the worst time-since-last-successful-poll observed
	// while trainers were pushing — the replica's staleness bound under
	// load. Gated against an absolute ceiling (loopback, so generous).
	MaxPollGapMillis float64 `json:"max_poll_gap_millis"`
	// DrainMillis is how long the post-load Sync took to prove the mirror
	// current; DrainExact is the gated bit — mirror == upstream M bitwise.
	DrainMillis float64 `json:"drain_millis"`
	DrainExact  bool    `json:"drain_exact"`
}

const (
	readWorkers  = 8
	readScrapers = 2
	// readReplicaCodec is deliberately lossy: the drain-exact gate then
	// covers the Sync-time re-base (FoldDown rounding would otherwise leave
	// the mirror one ULP off).
	readReplicaCodec = "ternary"
)

// runScraped measures push saturation while `scrapers` goroutines cut
// full-model snapshots in a tight loop via snap. Returns the saturation
// numbers plus achieved scrapes/sec.
func runScraped(srv serverTarget, updates [][]sparse.Update, workers, pushesPerWorker, scrapers int,
	sizes []int, snap func(dst [][]float32)) (pushesPerSec, p99Micros, scrapesPerSec float64) {
	stop := make(chan struct{})
	var scrapes atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < scrapers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([][]float32, len(sizes))
			for l, n := range sizes {
				dst[l] = make([]float32, n)
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap(dst)
				scrapes.Add(1)
			}
		}()
	}
	t0 := time.Now()
	pushesPerSec, p99Micros, _ = runSaturation(srv, updates, workers, pushesPerWorker)
	wall := time.Since(t0)
	close(stop)
	wg.Wait()
	return pushesPerSec, p99Micros, float64(scrapes.Load()) / wall.Seconds()
}

// runReplicaPhase drives trainer sessions over TCP while a replica
// subscribes with a lossy codec, then quiesces and drains.
func runReplicaPhase(rep *ReadReport, pushesPerWorker int) error {
	const trainers = 4
	sizes := embedLayerSizes()
	srv := ps.NewServer(ps.Config{LayerSizes: sizes, Workers: trainers + 1, Quiet: true})
	eo, err := trainer.ExactlyOnceHandlerWithCodec(srv, "mirror")
	if err != nil {
		return err
	}
	lis, err := transport.ListenTCP("127.0.0.1:0", eo.Handle)
	if err != nil {
		return err
	}
	defer lis.Close()

	r, err := replica.New(replica.Config{
		LayerSizes:   sizes,
		Worker:       trainers, // last slot; trainers use 0..trainers-1
		Dial:         replica.DialStack(lis.Addr(), 5*time.Second, 16, time.Millisecond, 50*time.Millisecond),
		Codec:        readReplicaCodec,
		PollInterval: 2 * time.Millisecond,
		SyncEvery:    8,
	})
	if err != nil {
		return err
	}
	defer r.Close()

	// Staleness sampler: worst time-since-last-poll while load is on.
	sampleStop := make(chan struct{})
	var sampleWG sync.WaitGroup
	var maxGap time.Duration
	sampleWG.Add(1)
	go func() {
		defer sampleWG.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-sampleStop:
				return
			case <-tick.C:
				if g := r.Stats().Staleness; g > maxGap {
					maxGap = g
				}
			}
		}
	}()

	rng := tensor.NewRNG(0x5EAD)
	updates := embedUpdates(rng, trainers, 4)
	addrs := make([]string, trainers)
	ids := make([]int, trainers)
	for i := range addrs {
		addrs[i], ids[i] = lis.Addr(), i
	}
	if _, _, _, err := aggFleetRun(addrs, ids, updates, pushesPerWorker); err != nil {
		return fmt.Errorf("bench: replica load phase: %w", err)
	}
	close(sampleStop)
	sampleWG.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	t0 := time.Now()
	if err := r.Sync(ctx); err != nil {
		return fmt.Errorf("bench: replica drain: %w", err)
	}
	rep.DrainMillis = float64(time.Since(t0)) / float64(time.Millisecond)

	want := make([][]float32, len(sizes))
	got := make([][]float32, len(sizes))
	for l, n := range sizes {
		want[l] = make([]float32, n)
		got[l] = make([]float32, n)
	}
	srv.MSnapshot(want)
	r.MSnapshot(got)
	rep.DrainExact = true
	for l := range want {
		for i := range want[l] {
			if want[l][i] != got[l][i] {
				rep.DrainExact = false
			}
		}
	}

	st := r.Stats()
	rep.ReplicaCodec = readReplicaCodec
	rep.ReplicaPolls = st.Polls
	rep.ReplicaAppliedCoords = st.AppliedCoords
	rep.ReplicaRebases = st.Rebases
	rep.MaxPollGapMillis = float64(maxGap) / float64(time.Millisecond)
	return nil
}

// RunRead executes the read-path benchmark. pushesPerWorker is each worker's
// measured budget (0 = the 256-push default; CI smoke uses a small budget
// and only sanity-checks the report shape plus the exactness bit).
func RunRead(pushesPerWorker int) (*ReadReport, error) {
	if pushesPerWorker <= 0 {
		pushesPerWorker = 256
	}
	sizes := embedLayerSizes()
	rep := &ReadReport{
		GoVersion:       runtime.Version(),
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		PushesPerWorker: pushesPerWorker,
		Workers:         readWorkers,
		Scrapers:        readScrapers,
		BlockSize:       1 << sparse.AutoBlockShift(sizes, false),
	}
	rng := tensor.NewRNG(0x5EAD + 1)

	cfg := ps.Config{LayerSizes: sizes, Workers: readWorkers, Quiet: true}

	// Context row: saturation with no scraper at all.
	updates := embedUpdates(rng, readWorkers, 4)
	rep.NoScrapePushesPerSec, _, _ = runSaturation(ps.NewServer(cfg), updates, readWorkers, pushesPerWorker)

	// Full-lock scrape path: every snapshot holds the model lock for a
	// complete copy, stalling all eight pushers for its duration.
	srvLocked := ps.NewServer(cfg)
	rep.LockedPushesPerSec, rep.LockedP99Micros, rep.LockedScrapesPerSec =
		runScraped(srvLocked, updates, readWorkers, pushesPerWorker, readScrapers, sizes,
			func(dst [][]float32) { srvLocked.MSnapshotLocked(dst) })

	// Copy-on-version path: readers copy changed blocks off the shadow.
	srvCopy := ps.NewServer(cfg)
	rep.CopyPushesPerSec, rep.CopyP99Micros, rep.CopyScrapesPerSec =
		runScraped(srvCopy, updates, readWorkers, pushesPerWorker, readScrapers, sizes,
			func(dst [][]float32) { srvCopy.MSnapshot(dst) })

	if rep.LockedPushesPerSec > 0 {
		rep.ScrapeSpeedup = rep.CopyPushesPerSec / rep.LockedPushesPerSec
	}

	if err := runReplicaPhase(rep, pushesPerWorker); err != nil {
		return nil, err
	}
	return rep, nil
}
