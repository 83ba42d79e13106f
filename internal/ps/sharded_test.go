package ps

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"dgs/internal/nn"
	"dgs/internal/raceflag"
	"dgs/internal/sparse"
	"dgs/internal/tensor"
)

// TestShardedEquivalentToSingleServer: a ShardedServer is a Server cut by
// layer, and both the plain gather and Eq. 6's Top-k work per layer, so fed
// the same schedule the two must ship bitwise the same frames (up to chunk
// order) and end with bitwise the same M and v_k. The schedule mixes Top-k
// pushes from three workers with empty pushes, Resync and FoldDown of a
// ternary codec's error, on an odd small geometry, the benchmark MLP and
// ResNetS, serially and on two cores (where the shards' pushes run side by
// side).
func TestShardedEquivalentToSingleServer(t *testing.T) {
	geometries := []struct {
		name  string
		sizes []int
	}{
		{"odd", []int{17, 5, 23, 9}},
		{"mlp", fleetMLPSizes},
		{"resnets", nn.NewResNetS(tensor.NewRNG(1), nn.DefaultResNetS(10)).LayerSizes()},
	}
	for _, geo := range geometries {
		for _, secondary := range []bool{false, true} {
			for _, procs := range []int{1, 2} {
				name := fmt.Sprintf("%s/secondary=%v/procs=%d", geo.name, secondary, procs)
				t.Run(name, func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					cfg := Config{LayerSizes: geo.sizes, Workers: 3, Secondary: secondary, SecondaryRatio: 0.05, Quiet: true}
					runShardedEquivalence(t, cfg)
				})
			}
		}
	}
}

func runShardedEquivalence(t *testing.T, cfg Config) {
	sizes, workers := cfg.LayerSizes, cfg.Workers
	single, sharded := NewServer(cfg), NewShardedServer(cfg, 3)
	rng := tensor.NewRNG(1)
	ups := make([]*sparse.Update, 4)
	for i := range ups {
		ups[i] = topKUpdate(rng, sizes, 0.05)
	}
	steps := 40
	if raceflag.Enabled {
		steps = 16
	}
	folds := make([]*sparse.Update, workers)
	for step := 0; step < steps; step++ {
		k := rng.Intn(workers)
		switch op := rng.Intn(10); {
		case op == 0:
			single.Resync(k)
			sharded.Resync(k)
			folds[k] = nil
		case op < 3 && folds[k] != nil:
			single.FoldDown(k, folds[k])
			sharded.FoldDown(k, folds[k])
			folds[k] = nil
		default:
			g := &sparse.Update{}
			if op != 3 { // op 3: an empty push, a pure download
				g = ups[rng.Intn(len(ups))]
			}
			G1, _ := single.Push(k, g)
			G2, _ := sharded.Push(k, g)
			requireSameFrame(t, step, &G2, &G1)
			folds[k] = ternaryError(&G1)
		}
	}
	a, b := alloc(sizes), alloc(sizes)
	for k := -1; k < workers; k++ {
		globalState(sharded, k, a)
		globalState(single, k, b)
		for l := range a {
			for j := range a[l] {
				if math.Float32bits(a[l][j]) != math.Float32bits(b[l][j]) {
					t.Fatalf("state %d (−1 = M) layer %d index %d: sharded %v, single %v", k, l, j, a[l][j], b[l][j])
				}
			}
		}
	}
}

func TestShardedBalancesLoad(t *testing.T) {
	sizes := []int{100, 100, 100, 100, 100, 100}
	s := NewShardedServer(Config{LayerSizes: sizes, Workers: 1}, 3)
	counts := make([]int, 3)
	for l := range sizes {
		counts[s.ShardOf(l)] += sizes[l]
	}
	for i, c := range counts {
		if c != 200 {
			t.Fatalf("shard %d holds %d elements; want 200 (balanced)", i, c)
		}
	}
}

func TestShardedClampsShardCount(t *testing.T) {
	s := NewShardedServer(Config{LayerSizes: []int{4, 4}, Workers: 1}, 10)
	if s.NumShards() != 2 {
		t.Fatalf("shards %d, want clamp to layer count 2", s.NumShards())
	}
}

func TestShardedStatsAggregate(t *testing.T) {
	sizes := []int{8, 8}
	s := NewShardedServer(Config{LayerSizes: sizes, Workers: 1}, 2)
	empty := sparse.Update{}
	s.Push(0, &empty)
	s.Push(0, &empty)
	st := s.Stats()
	// Each push touches both shards: 2 pushes × 2 shards.
	if st.Pushes != 4 {
		t.Fatalf("aggregated pushes %d, want 4", st.Pushes)
	}
}

func TestShardedStateBytes(t *testing.T) {
	sizes := []int{10, 10}
	single := NewServer(Config{LayerSizes: sizes, Workers: 3})
	shard := NewShardedServer(Config{LayerSizes: sizes, Workers: 3}, 2)
	if shard.StateBytes() != single.StateBytes() {
		t.Fatalf("sharded state %dB != single %dB; sharding must not change totals",
			shard.StateBytes(), single.StateBytes())
	}
}

func TestShardedConcurrentConservation(t *testing.T) {
	sizes := []int{64, 32}
	const workers = 4
	const pushes = 30
	// One extra worker slot (id 4) stays silent so it can recover the full
	// accumulated M at the end.
	s := NewShardedServer(Config{LayerSizes: sizes, Workers: workers + 1}, 2)
	var mu sync.Mutex
	total := alloc(sizes)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := tensor.NewRNG(uint64(200 + k))
			localSum := alloc(sizes)
			for i := 0; i < pushes; i++ {
				g := randomUpdate(rng, sizes, 0.25)
				apply(&g, localSum, 1)
				s.Push(k, &g)
			}
			mu.Lock()
			for layer := range total {
				for j := range total[layer] {
					total[layer][j] += localSum[layer][j]
				}
			}
			mu.Unlock()
		}(k)
	}
	wg.Wait()
	// The silent worker's first difference is the entire M.
	recovered := alloc(sizes)
	empty := sparse.Update{}
	for i := 0; i < 4; i++ { // a few rounds in case of ulp re-sends
		G, _ := s.Push(workers, &empty)
		apply(&G, recovered, 1)
	}
	for layer := range recovered {
		for j := range recovered[layer] {
			if math.Abs(float64(recovered[layer][j]+total[layer][j])) > 1e-3 {
				t.Fatalf("mass lost at %d/%d", layer, j)
			}
		}
	}
}

func TestShardedResyncResetsStalenessBaseline(t *testing.T) {
	sizes := []int{8, 8}
	s := NewShardedServer(Config{LayerSizes: sizes, Workers: 2}, 2)
	empty := sparse.Update{}
	// Worker 0 advances the clock while worker 1 is "down".
	s.Push(1, &empty)
	for i := 0; i < 5; i++ {
		s.Push(0, &empty)
	}
	s.Resync(1)
	var clock uint64
	for _, shard := range s.shards {
		clock += shard.Timestamp()
	}
	if s.prevClock[1] != clock {
		t.Fatalf("prevClock after resync = %d, want current summed clock %d", s.prevClock[1], clock)
	}
	// The first post-rejoin push therefore observes only its own clock
	// advance (staleness 0), not the whole outage.
	_, after := s.Push(1, &empty)
	stale := float64(after-clock)/float64(s.NumShards()) - 1
	if stale != 0 {
		t.Fatalf("first post-resync staleness = %v, want 0", stale)
	}
}

func TestShardedBadShardCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("0 shards must panic")
		}
	}()
	NewShardedServer(Config{LayerSizes: []int{1}, Workers: 1}, 0)
}

// TestShardedPushLeaksNoGoroutines: a ShardedServer owns no goroutine. Once
// its pushes have returned, the process is back to the goroutines it had
// before the server existed — without a GC, while the server is still
// reachable.
func TestShardedPushLeaksNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	base := runtime.NumGoroutine()
	sizes := fleetMLPSizes
	s := NewShardedServer(Config{LayerSizes: sizes, Workers: 2, Secondary: true, SecondaryRatio: 0.05, Quiet: true}, 2)
	g := [2]*sparse.Update{topKUpdate(tensor.NewRNG(61), sizes, 0.05), topKUpdate(tensor.NewRNG(62), sizes, 0.05)}
	var wg sync.WaitGroup
	for k := range g {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				s.Push(k, g[k])
			}
		}(k)
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the pushes, %d before the server:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
	runtime.KeepAlive(s)
}

// TestTwoCorePushAllocs is the allocation lock of the multi-core paths.
// testing.AllocsPerRun pins GOMAXPROCS 1, where par.Each is the serial loop,
// so this test counts runtime.MemStats mallocs at GOMAXPROCS 2 itself: a
// steady-state Eq. 6 push to one Server, whatever its layer size and the nnz
// of the push, and a push to a two-shard ShardedServer, whose shards run
// through par.Each, allocate nothing. The runtime may allocate on its own
// (a goroutine descriptor when its free list is empty), so a case fails only
// when it averages a whole allocation per push or more.
func TestTwoCorePushAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const pushes = 20
	type pusher interface {
		Push(int, *sparse.Update) (sparse.Update, uint64)
	}
	for _, tc := range []struct {
		name    string
		sizes   []int
		ratio   float64
		sharded bool
	}{
		{"server/256Ki/1%", []int{1 << 18, 64}, 0.01, false},
		{"server/256Ki/20%", []int{1 << 18, 64}, 0.2, false},
		{"server/1Mi/1%", []int{1 << 20, 64}, 0.01, false},
		{"server/1Mi/20%", []int{1 << 20, 64}, 0.2, false},
		{"sharded/mlp", fleetMLPSizes, 0.05, true},
	} {
		cfg := Config{LayerSizes: tc.sizes, Workers: 1, Secondary: true, SecondaryRatio: 0.01, Quiet: true}
		var srv pusher = NewServer(cfg)
		if tc.sharded {
			srv = NewShardedServer(cfg, 2)
		}
		g := topKUpdate(tensor.NewRNG(63), tc.sizes, tc.ratio)
		for warm := 0; warm < 20; warm++ {
			srv.Push(0, g)
		}
		per := ^uint64(0)
		for rep := 0; rep < 3; rep++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for p := 0; p < pushes; p++ {
				srv.Push(0, g)
			}
			runtime.ReadMemStats(&after)
			per = min(per, (after.Mallocs-before.Mallocs)/pushes)
		}
		if per > 0 {
			t.Errorf("%s: %d allocs per push at GOMAXPROCS 2, want 0", tc.name, per)
		}
	}
}
