package ps

import (
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"dgs/internal/sparse"
	"dgs/internal/tensor"
)

// Tests of the flat-combining apply queue (Server.enqueue / combine): the
// queue may batch pushes under one write-lock hold in any grouping, but the
// outcome must be what some serial schedule of the same pushes produces —
// one stamp per update, exact staleness, exact M.

// gridConfig gives the single layer the combiner tests push at: one private
// dirty-tracking block per worker and one block they all share.
func gridConfig(workers int) Config {
	return Config{LayerSizes: []int{(workers + 1) << sparse.PlainBlockShift}, Workers: workers,
		BlockShift: sparse.PlainBlockShift, Quiet: true}
}

// gridUpdate is worker k's push: a power-of-two value at the first element
// of its private block and at the shared block's, so every partial sum is
// exact in float32 and M does not depend on the order of the applies.
func gridUpdate(s *Server, k int) (g sparse.Update, val float32) {
	val = float32(math.Ldexp(1, -(k % 5)))
	private, shared := int32(k<<s.blockShift), int32(s.cfg.Workers<<s.blockShift)
	g.Chunks = []sparse.Chunk{{Layer: 0, Idx: []int32{private, shared}, Val: []float32{val, val}}}
	return g, val
}

// stampOf reads the stamp of worker k's latest apply off its private block:
// nobody else writes that block, so it is t0+1 of k's last push.
func stampOf(s *Server, k int) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.mver[0][k]
}

func TestCombinedPushesMatchSerialSchedule(t *testing.T) {
	const workers, rounds = 8, 300
	s := NewServer(gridConfig(workers))
	stamps := make([][]uint64, workers)
	staleness := make([]uint64, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			g, _ := gridUpdate(s, k)
			prev := uint64(0)
			for r := 0; r < rounds; r++ {
				_, tSeen := s.Push(k, &g)
				stamp := stampOf(s, k)
				if stamp <= prev || stamp > tSeen {
					t.Errorf("worker %d round %d: stamp %d outside (prev %d, seen %d]", k, r, stamp, prev, tSeen)
					return
				}
				stamps[k] = append(stamps[k], stamp)
				staleness[k] += stamp - 1 - prev // t0 − prev(k)
				prev = tSeen
			}
		}(k)
	}
	wg.Wait()

	// One stamp per update: together they are exactly 1..workers·rounds.
	var all []uint64
	var wantStale uint64
	for k := range stamps {
		all = append(all, stamps[k]...)
		wantStale += staleness[k]
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	for i, stamp := range all {
		if stamp != uint64(i+1) {
			t.Fatalf("stamps are not a permutation of 1..%d: position %d holds %d", workers*rounds, i, stamp)
		}
	}
	st := s.Stats()
	if got := s.Timestamp(); got != workers*rounds || st.Pushes != workers*rounds {
		t.Fatalf("t = %d, Pushes = %d, want both %d", got, st.Pushes, workers*rounds)
	}
	if st.StalenessSum != wantStale {
		t.Fatalf("StalenessSum = %d, the pushes observed %d", st.StalenessSum, wantStale)
	}
	if batches := s.applyBatches.Load(); batches == 0 || batches > workers*rounds {
		t.Fatalf("%d apply batches for %d pushes", batches, workers*rounds)
	}

	// M is exact, and after a drain every v_k equals it (Eq. 5).
	m, v := alloc(s.cfg.LayerSizes), alloc(s.cfg.LayerSizes)
	want := alloc(s.cfg.LayerSizes)
	for k := 0; k < workers; k++ {
		_, val := gridUpdate(s, k)
		want[0][k<<s.blockShift] = -val * rounds
		want[0][workers<<s.blockShift] -= val * rounds
	}
	s.MSnapshot(m)
	for j := range m[0] {
		if m[0][j] != want[0][j] {
			t.Fatalf("M[%d] = %v, want %v", j, m[0][j], want[0][j])
		}
	}
	var empty sparse.Update
	for k := 0; k < workers; k++ {
		s.Push(k, &empty)
	}
	s.MSnapshot(m)
	for k := 0; k < workers; k++ {
		s.VSnapshot(k, v)
		for j := range m[0] {
			if math.Float32bits(v[0][j]) != math.Float32bits(m[0][j]) {
				t.Fatalf("after drain v_%d[%d] = %v, M = %v", k, j, v[0][j], m[0][j])
			}
		}
	}
}

// TestOneLockHoldAppliesQueuedBatch forces a batch: with a reader holding
// the model lock open, k pushers queue up behind one combiner; once the
// reader lets go, a single write-lock hold must apply all k updates, each
// under its own stamp.
func TestOneLockHoldAppliesQueuedBatch(t *testing.T) {
	const workers = 6
	s := NewServer(gridConfig(workers))
	var empty sparse.Update
	s.Push(0, &empty) // start from a nonzero clock
	t0, batches0 := s.Timestamp(), s.applyBatches.Load()

	s.mu.RLock() // an open gather
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			g, _ := gridUpdate(s, k)
			s.Push(k, &g)
		}(k)
	}
	deadline := time.Now().Add(10 * time.Second)
	for queued := 0; queued < workers; {
		if time.Now().After(deadline) {
			s.mu.RUnlock()
			t.Fatalf("only %d of %d pushes reached the apply queue", queued, workers)
		}
		time.Sleep(time.Millisecond)
		queued = 0
		s.qmu.Lock()
		for w := s.qhead; w != nil; w = w.next {
			queued++
		}
		s.qmu.Unlock()
	}
	if got := s.Timestamp(); got != t0 {
		s.mu.RUnlock()
		t.Fatalf("clock moved to %d while a reader held the model lock", got)
	}
	s.mu.RUnlock()
	wg.Wait()

	if got := s.applyBatches.Load() - batches0; got != 1 {
		t.Fatalf("%d write-lock holds applied the %d queued pushes, want 1", got, workers)
	}
	if got := s.Timestamp(); got != t0+workers {
		t.Fatalf("t = %d after the batch, want %d", got, t0+workers)
	}
	seen := map[uint64]bool{}
	for k := 0; k < workers; k++ {
		stamp := stampOf(s, k)
		if stamp <= t0 || stamp > t0+workers || seen[stamp] {
			t.Fatalf("worker %d's update carries stamp %d: want %d distinct stamps in (%d, %d]", k, stamp, workers, t0, t0+workers)
		}
		seen[stamp] = true
	}
}

// TestPushPanicsBeforeQueueing: an update that does not fit the model must
// blow up on its own pusher's goroutine with nothing queued and no lock
// held, so everyone else — and the offender — can keep pushing.
func TestPushPanicsBeforeQueueing(t *testing.T) {
	sizes := []int{64, 64}
	servers := map[string]Pusher{
		"server":  NewServer(Config{LayerSizes: sizes, Workers: 2, Quiet: true}),
		"sharded": NewShardedServer(Config{LayerSizes: sizes, Workers: 2, Quiet: true}, 2),
	}
	for name, s := range servers {
		for _, bad := range []sparse.Update{
			{Chunks: []sparse.Chunk{{Layer: 2, Idx: []int32{0}, Val: []float32{1}}}},
			{Chunks: []sparse.Chunk{{Layer: 0, Idx: []int32{64}, Val: []float32{1}}}},
			{Chunks: []sparse.Chunk{{Layer: 1, Idx: []int32{3, 2}, Val: []float32{1, 1}}}},
			{Chunks: []sparse.Chunk{{Layer: 1, Idx: []int32{3}, Val: nil}}},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s: Push accepted %+v", name, bad)
					}
				}()
				s.Push(0, &bad)
			}()
			good := sparse.Update{Chunks: []sparse.Chunk{{Layer: 1, Idx: []int32{5}, Val: []float32{1}}}}
			for k := 0; k < 2; k++ {
				if G, _ := s.Push(k, &good); G.NNZ() == 0 {
					t.Fatalf("%s: worker %d's push after the bad one returned nothing", name, k)
				}
			}
		}
	}
}

// TestConcurrentPushSteadyStateAllocs is the two-goroutine form of the
// steady-state allocation lock: leading a batch, following in one, and
// releasing a follower all allocate nothing, on either downward path.
func TestConcurrentPushSteadyStateAllocs(t *testing.T) {
	for name, cfg := range map[string]Config{
		"plain":     {LayerSizes: benchSizes, Workers: 2},
		"secondary": {LayerSizes: benchSizes, Workers: 2, Secondary: true, SecondaryRatio: 0.01},
	} {
		srv := NewServer(cfg)
		g := [2]*sparse.Update{benchUpdate(tensor.NewRNG(41), benchSizes), benchUpdate(tensor.NewRNG(42), benchSizes)}
		if allocs := concurrentPushAllocs(srv, g); allocs > 0 {
			t.Errorf("%s: two concurrent steady-state pushes allocate %v objects, want 0", name, allocs)
		}
	}
}

// concurrentPushAllocs warms srv's workers 0 and 1 up, then reports the
// allocations of one round in which both push g[k] at once.
func concurrentPushAllocs(srv *Server, g [2]*sparse.Update) float64 {
	start, done := make(chan struct{}), make(chan struct{})
	defer close(start)
	go func() {
		for range start {
			srv.Push(1, g[1])
			done <- struct{}{}
		}
	}()
	both := func() {
		start <- struct{}{}
		srv.Push(0, g[0])
		<-done
	}
	both()
	both()
	return testing.AllocsPerRun(20, both)
}
