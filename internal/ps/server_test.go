package ps

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"dgs/internal/sparse"
	"dgs/internal/tensor"
)

func alloc(sizes []int) [][]float32 {
	out := make([][]float32, len(sizes))
	for i, n := range sizes {
		out[i] = make([]float32, n)
	}
	return out
}

func randomUpdate(rng *tensor.RNG, sizes []int, keepRatio float64) sparse.Update {
	dense := alloc(sizes)
	for _, l := range dense {
		rng.FillNormal(l, 0, 1)
	}
	if keepRatio >= 1 {
		return sparse.DenseUpdate(dense)
	}
	return sparse.SparsifyLayers(dense, keepRatio)
}

// apply adds the update into a dense accumulator with the given sign.
func apply(u *sparse.Update, dst [][]float32, scale float32) {
	for i := range u.Chunks {
		sparse.Scatter(&u.Chunks[i], dst[u.Chunks[i].Layer], scale)
	}
}

// Eq. 5 invariant: without secondary compression, a worker that applies
// every received difference holds exactly the server model, regardless of
// how pushes from other workers interleave.
func TestWorkerTracksServerExactly(t *testing.T) {
	f := func(seed int64, schedule []uint8) bool {
		if len(schedule) == 0 {
			return true
		}
		sizes := []int{17, 5}
		const workers = 3
		s := NewServer(Config{LayerSizes: sizes, Workers: workers})
		rng := tensor.NewRNG(uint64(seed))
		// local[k] accumulates worker k's applied differences (θ_k − θ_0).
		local := make([][][]float32, workers)
		for k := range local {
			local[k] = alloc(sizes)
		}
		for _, step := range schedule[:min(len(schedule), 40)] {
			k := int(step) % workers
			g := randomUpdate(rng, sizes, 0.3)
			G, _ := s.Push(k, &g)
			apply(&G, local[k], 1)
			// After the exchange the worker must equal the server model.
			m := alloc(sizes)
			s.MSnapshot(m)
			for layer := range m {
				for j := range m[layer] {
					if math.Abs(float64(m[layer][j]-local[k][layer][j])) > 1e-5 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Eq. 3: immediately after serving worker k without secondary compression,
// v_k equals M (up to one float32 ulp: the server applies v += (M−v), the
// same addition the worker performs, so worker state and v_k stay bitwise
// identical while both track M to rounding error — and any ulp gap is
// re-sent as a tiny correction on the next exchange, so it cannot grow).
func TestVkEqualsMAfterPush(t *testing.T) {
	sizes := []int{9, 4}
	s := NewServer(Config{LayerSizes: sizes, Workers: 2})
	rng := tensor.NewRNG(1)
	for step := 0; step < 10; step++ {
		k := step % 2
		g := randomUpdate(rng, sizes, 0.5)
		s.Push(k, &g)
		m, v := alloc(sizes), alloc(sizes)
		s.MSnapshot(m)
		s.VSnapshot(k, v)
		for layer := range m {
			for j := range m[layer] {
				diff := math.Abs(float64(m[layer][j] - v[layer][j]))
				if diff > 1e-6*(1+math.Abs(float64(m[layer][j]))) {
					t.Fatalf("step %d: v_%d[%d][%d]=%v != M=%v", step, k, layer, j, v[layer][j], m[layer][j])
				}
			}
		}
	}
}

// Secondary compression (Eq. 6): what the worker has applied always equals
// v_k (the server's record), and M − v_k is exactly the not-yet-delivered
// remainder — information is delayed, never lost. After enough empty
// pushes everything drains and the worker converges to the server model.
func TestSecondaryCompressionConservationAndDrain(t *testing.T) {
	sizes := []int{64}
	s := NewServer(Config{LayerSizes: sizes, Workers: 2, Secondary: true, SecondaryRatio: 0.1})
	rng := tensor.NewRNG(2)
	local := alloc(sizes)
	// Worker 1 floods the server with updates; worker 0 receives compressed
	// differences.
	for i := 0; i < 5; i++ {
		g := randomUpdate(rng, sizes, 1)
		s.Push(1, &g)
	}
	empty := sparse.Update{}
	G, _ := s.Push(0, &empty)
	apply(&G, local, 1)
	v := alloc(sizes)
	s.VSnapshot(0, v)
	for j := range local[0] {
		if local[0][j] != v[0][j] {
			t.Fatalf("worker-applied state != v_k at %d", j)
		}
	}
	// Drain: with no new updates, repeated pushes must deliver the rest
	// within ceil(n/k) rounds.
	for i := 0; i < 15; i++ {
		G, _ := s.Push(0, &empty)
		apply(&G, local, 1)
	}
	m := alloc(sizes)
	s.MSnapshot(m)
	for j := range m[0] {
		if math.Abs(float64(m[0][j]-local[0][j])) > 1e-6*(1+math.Abs(float64(m[0][j]))) {
			t.Fatalf("after drain, worker[%d]=%v != M=%v", j, local[0][j], m[0][j])
		}
	}
}

// The compressed downward message must be smaller than the uncompressed
// difference when the difference is dense.
func TestSecondaryCompressionLimitsDownwardSize(t *testing.T) {
	sizes := []int{1000}
	s := NewServer(Config{LayerSizes: sizes, Workers: 2, Secondary: true, SecondaryRatio: 0.01})
	rng := tensor.NewRNG(3)
	for i := 0; i < 3; i++ {
		g := randomUpdate(rng, sizes, 1)
		s.Push(1, &g)
	}
	empty := sparse.Update{}
	G, _ := s.Push(0, &empty)
	if G.NNZ() != 10 {
		t.Fatalf("downward NNZ = %d, want 10 (top 1%% of 1000)", G.NNZ())
	}
}

func TestDenseDownwardShipsWholeModel(t *testing.T) {
	sizes := []int{8, 3}
	s := NewServer(Config{LayerSizes: sizes, Workers: 1, DenseDownward: true})
	rng := tensor.NewRNG(4)
	local := alloc(sizes)
	for i := 0; i < 4; i++ {
		g := randomUpdate(rng, sizes, 0.5)
		G, _ := s.Push(0, &g)
		if G.NNZ() != 11 {
			t.Fatalf("dense downward NNZ = %d, want 11 (full model)", G.NNZ())
		}
		apply(&G, local, 1)
	}
	m := alloc(sizes)
	s.MSnapshot(m)
	for layer := range m {
		for j := range m[layer] {
			if math.Abs(float64(m[layer][j]-local[layer][j])) > 1e-6*(1+math.Abs(float64(m[layer][j]))) {
				t.Fatal("dense downward must reproduce the server model (to rounding)")
			}
		}
	}
}

func TestTimestampAndStaleness(t *testing.T) {
	sizes := []int{4}
	s := NewServer(Config{LayerSizes: sizes, Workers: 2})
	empty := sparse.Update{}
	s.Push(0, &empty) // t=1, staleness 0
	s.Push(1, &empty) // t=2, staleness 1 for worker 1 (one update since its prev=0)
	s.Push(0, &empty) // t=3, staleness 1 for worker 0 (prev was 1)
	if got := s.Timestamp(); got != 3 {
		t.Fatalf("timestamp %d, want 3", got)
	}
	st := s.Stats()
	if st.Pushes != 3 {
		t.Fatalf("pushes %d, want 3", st.Pushes)
	}
	if st.StalenessSum != 2 {
		t.Fatalf("staleness sum %d, want 2", st.StalenessSum)
	}
	if st.MaxStaleness != 1 {
		t.Fatalf("max staleness %d, want 1", st.MaxStaleness)
	}
}

// Under concurrent pushes, no update may be lost: M must equal the negated
// elementwise sum of all pushed updates. Run with -race.
func TestConcurrentPushesConserveMass(t *testing.T) {
	sizes := []int{128}
	const workers = 8
	const pushesPerWorker = 50
	s := NewServer(Config{LayerSizes: sizes, Workers: workers})
	var mu sync.Mutex
	total := alloc(sizes)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := tensor.NewRNG(uint64(100 + k))
			localSum := alloc(sizes)
			for i := 0; i < pushesPerWorker; i++ {
				g := randomUpdate(rng, sizes, 0.2)
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
	m := alloc(sizes)
	s.MSnapshot(m)
	for j := range m[0] {
		if math.Abs(float64(m[0][j]+total[0][j])) > 1e-3 {
			t.Fatalf("mass lost at %d: M=%v, -sum=%v", j, m[0][j], -total[0][j])
		}
	}
	if got := s.Stats().Pushes; got != workers*pushesPerWorker {
		t.Fatalf("pushes %d, want %d", got, workers*pushesPerWorker)
	}
}

func TestStateBytes(t *testing.T) {
	s := NewServer(Config{LayerSizes: []int{100}, Workers: 4})
	// M (400B) + 4 × v_k (400B each) = 2000B.
	if got := s.StateBytes(); got != 2000 {
		t.Fatalf("StateBytes = %d, want 2000", got)
	}
}

func TestBadConfigPanics(t *testing.T) {
	cases := []Config{
		{LayerSizes: []int{1}, Workers: 0},
		{LayerSizes: []int{1}, Workers: 1, Secondary: true, SecondaryRatio: 0},
		{LayerSizes: []int{1}, Workers: 1, Secondary: true, SecondaryRatio: 2},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			NewServer(cfg)
		}()
	}
}

func TestPushBadWorkerPanics(t *testing.T) {
	s := NewServer(Config{LayerSizes: []int{1}, Workers: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range worker")
		}
	}()
	empty := sparse.Update{}
	s.Push(5, &empty)
}
