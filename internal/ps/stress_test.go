package ps

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dgs/internal/sparse"
	"dgs/internal/tensor"
)

// stressTarget is the surface the concurrency stress drives; Server and
// ShardedServer both satisfy it (Timestamp is on the concrete types, not on
// Pusher, so list it here).
type stressTarget interface {
	Pusher
	Timestamp() uint64
}

// runServerStress hammers a server from every direction at once under the
// race detector: worker goroutines pushing (with occasional resyncs of
// their own id), plus concurrent Stats, Timestamp, and snapshot pollers.
// While traffic is in flight it checks that the lock-free counters never go
// inconsistent in ways monotone atomics forbid; after quiescence it checks
// the exact accounting identities.
func runServerStress(t *testing.T, s stressTarget, snapM func(dst [][]float32), snapV func(worker int, dst [][]float32), sizes []int, workers, pushes int) {
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Workers: each serialises its own exchanges (transport contract) but
	// runs concurrently with every other worker.
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := tensor.NewRNG(uint64(1000 + k))
			for i := 0; i < pushes; i++ {
				if rng.Intn(50) == 0 {
					s.Resync(k)
				}
				g := randomUpdate(rng, sizes, 0.1)
				G, _ := s.Push(k, &g)
				_ = G.NNZ()
			}
		}(k)
	}

	// Pollers: Stats monotonicity + Timestamp monotonicity + snapshots.
	pollers := []func(){
		func() {
			var lastPushes, lastSum uint64
			for !stop.Load() {
				runtime.Gosched()
				st := s.Stats()
				if st.Pushes < lastPushes || st.StalenessSum < lastSum {
					t.Errorf("stats went backwards: %+v after pushes=%d sum=%d", st, lastPushes, lastSum)
					return
				}
				lastPushes, lastSum = st.Pushes, st.StalenessSum
			}
		},
		func() {
			var last uint64
			for !stop.Load() {
				runtime.Gosched()
				ts := s.Timestamp()
				if ts < last {
					t.Errorf("timestamp went backwards: %d after %d", ts, last)
					return
				}
				last = ts
			}
		},
		func() {
			dst := alloc(sizes)
			for !stop.Load() {
				snapM(dst)
			}
		},
		func() {
			dst := alloc(sizes)
			w := 0
			for !stop.Load() {
				snapV(w%workers, dst)
				w++
			}
		},
	}
	var pwg sync.WaitGroup
	for _, p := range pollers {
		pwg.Add(1)
		go func(p func()) { defer pwg.Done(); p() }(p)
	}

	wg.Wait()
	stop.Store(true)
	pwg.Wait()

	// Quiescent accounting identities.
	st := s.Stats()
	if st.Pushes == 0 {
		t.Fatal("no pushes recorded")
	}
	if st.StalenessSum > st.Pushes*st.MaxStaleness {
		t.Errorf("staleness inconsistent: sum %d > pushes %d × max %d", st.StalenessSum, st.Pushes, st.MaxStaleness)
	}
	if st.MaxStaleness == 0 && st.StalenessSum != 0 {
		t.Errorf("max staleness 0 but sum %d", st.StalenessSum)
	}
}

// TestServerStress drives concurrent Push + Resync + Stats + MSnapshot +
// VSnapshot across a Server under -race and asserts the staleness counters
// stay consistent and the clock monotone.
func TestServerStress(t *testing.T) {
	sizes := []int{1 << 11, 257, 33}
	const workers = 8
	s := NewServer(Config{LayerSizes: sizes, Workers: workers, BlockShift: 7, Quiet: true})
	runServerStress(t, s, func(dst [][]float32) { s.MSnapshot(dst) }, s.VSnapshot, sizes, workers, 30)
}

// TestSecondaryServerStress is the same concurrent drill with secondary
// compression on, so the per-worker secondary state (residual bits, the
// dense difference scratch and the selector) updates while pushes from
// other workers, resyncs, Stats, Timestamp, and snapshot pollers all race
// it under -race.
func TestSecondaryServerStress(t *testing.T) {
	sizes := []int{1 << 11, 257, 33}
	const workers = 8
	s := NewServer(Config{
		LayerSizes: sizes, Workers: workers,
		Secondary: true, SecondaryRatio: 0.05, BlockShift: 6, Quiet: true,
	})
	runServerStress(t, s, func(dst [][]float32) { s.MSnapshot(dst) }, s.VSnapshot, sizes, workers, 30)
}

// TestShardedServerStress is the same drill against a 4-shard server, where
// pushes additionally fan out across shard locks through the apply pool.
func TestShardedServerStress(t *testing.T) {
	sizes := []int{1 << 11, 257, 33, 1 << 10, 129}
	const workers = 8
	s := NewShardedServer(Config{LayerSizes: sizes, Workers: workers, Quiet: true}, 4)
	snapM := func(dst [][]float32) {
		// Shard-local snapshot through the placement maps: per-layer copies
		// are individually consistent, which is all the poller asserts.
		for l := range sizes {
			sh := s.shards[s.layerShard[l]]
			one := make([][]float32, len(sh.cfg.LayerSizes))
			for i, n := range sh.cfg.LayerSizes {
				one[i] = make([]float32, n)
			}
			sh.MSnapshot(one)
			copy(dst[l], one[s.layerLocal[l]])
		}
	}
	snapV := func(worker int, dst [][]float32) {
		for l := range sizes {
			sh := s.shards[s.layerShard[l]]
			one := make([][]float32, len(sh.cfg.LayerSizes))
			for i, n := range sh.cfg.LayerSizes {
				one[i] = make([]float32, n)
			}
			sh.VSnapshot(worker, one)
			copy(dst[l], one[s.layerLocal[l]])
		}
	}
	runServerStress(t, s, snapM, snapV, sizes, workers, 40)
}

// TestConcurrentPushesDistinctWorkers pins the core liveness/consistency
// claim of the lock decomposition: N workers pushing disjoint coordinates
// concurrently all complete, the final M is the sum of everything applied,
// and each worker's v equals M after a final drain exchange (Eq. 5).
func TestConcurrentPushesDistinctWorkers(t *testing.T) {
	sizes := []int{1 << 12}
	const workers = 6
	const rounds = 25
	s := NewServer(Config{LayerSizes: sizes, Workers: workers, Quiet: true})
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			// Worker k owns coordinates ≡ k (mod workers): disjoint writes.
			for r := 0; r < rounds; r++ {
				var idx []int32
				var val []float32
				for j := k; j < sizes[0]; j += workers * 16 {
					idx = append(idx, int32(j))
					val = append(val, -1) // M gains +1 per push at these coords
				}
				g := sparse.Update{Chunks: []sparse.Chunk{{Layer: 0, Idx: idx, Val: val}}}
				s.Push(k, &g)
			}
		}(k)
	}
	wg.Wait()

	// Drain: one empty exchange per worker synchronises every v_k to M.
	for k := 0; k < workers; k++ {
		var g sparse.Update
		s.Push(k, &g)
	}
	m := alloc(sizes)
	s.MSnapshot(m)
	for k := 0; k < workers; k++ {
		v := alloc(sizes)
		s.VSnapshot(k, v)
		for j := range m[0] {
			if v[0][j] != m[0][j] {
				t.Fatalf("worker %d: v[%d]=%v, M=%v", k, j, v[0][j], m[0][j])
			}
		}
	}
	// Each touched coordinate took exactly `rounds` increments of 1 (integer
	// arithmetic in float32 is exact), so sum(M) counts every applied value:
	// workers × rounds × coordinates per push.
	total := float64(0)
	for _, x := range m[0] {
		total += float64(x)
	}
	coordsPerPush := 0
	for j := 0; j < sizes[0]; j += workers * 16 {
		coordsPerPush++
	}
	if want := float64(workers * rounds * coordsPerPush); total != want {
		t.Fatalf("sum(M) = %v, want %v", total, want)
	}
}
