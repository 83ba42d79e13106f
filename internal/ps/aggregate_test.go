package ps

import (
	"bytes"
	"slices"
	"testing"

	"dgs/internal/checkpoint"
	"dgs/internal/sparse"
	"dgs/internal/tensor"
)

func nnz(u *sparse.Update) int {
	n := 0
	for i := range u.Chunks {
		n += len(u.Chunks[i].Idx)
	}
	return n
}

// drainWorker gathers for the worker until the downward diff is empty,
// returning the number of rounds it took.
func drainGather(t *testing.T, s *Server, worker, maxRounds int) int {
	t.Helper()
	for r := 1; r <= maxRounds; r++ {
		if g, _ := s.Gather(worker); nnz(&g) == 0 {
			return r
		}
	}
	t.Fatalf("worker %d not drained after %d gathers", worker, maxRounds)
	return 0
}

// ApplyDiff must add the diff into M exactly (bitwise) and advance the
// timestamp by one per call.
func TestApplyDiffAddsExactly(t *testing.T) {
	sizes := []int{33, 129}
	s := NewServer(Config{LayerSizes: sizes, Workers: 1})
	rng := tensor.NewRNG(7)
	want := alloc(sizes)
	for i := 0; i < 5; i++ {
		g := randomUpdate(rng, sizes, 0.3)
		if tNew := s.ApplyDiff(&g); tNew != uint64(i+1) {
			t.Fatalf("apply %d: t=%d, want %d", i, tNew, i+1)
		}
		apply(&g, want, 1)
	}
	m := alloc(sizes)
	s.MSnapshot(m)
	for layer := range m {
		for j := range m[layer] {
			if m[layer][j] != want[layer][j] {
				t.Fatalf("M[%d][%d]=%v, want %v", layer, j, m[layer][j], want[layer][j])
			}
		}
	}
}

// ApplyDiff must stamp dirty blocks so a subsequent Gather sees the change,
// and repeated gathers must drain the worker to the bitwise Eq. 5 fixpoint
// v_k == M.
func TestApplyDiffVisibleToGatherAndDrains(t *testing.T) {
	sizes := []int{512, 65}
	s := NewServer(Config{LayerSizes: sizes, Workers: 2})
	rng := tensor.NewRNG(8)
	local := alloc(sizes)
	for i := 0; i < 4; i++ {
		g := randomUpdate(rng, sizes, 0.25)
		s.ApplyDiff(&g)
		G, _ := s.Gather(0)
		apply(&G, local, 1)
	}
	drainGather(t, s, 0, 64)
	m, v := alloc(sizes), alloc(sizes)
	s.MSnapshot(m)
	s.VSnapshot(0, v)
	for layer := range m {
		for j := range m[layer] {
			if v[layer][j] != m[layer][j] {
				t.Fatalf("post-drain v_0[%d][%d]=%v != M=%v", layer, j, v[layer][j], m[layer][j])
			}
		}
	}
}

// Gather is Push minus the apply phase: against servers in identical state,
// Gather(k) and Push(k, empty) must hand back bitwise-identical downward
// frames and leave v_k bitwise identical.
func TestGatherMatchesEmptyPush(t *testing.T) {
	sizes := []int{256, 31}
	mk := func() *Server { return NewServer(Config{LayerSizes: sizes, Workers: 2}) }
	a, b := mk(), mk()
	rng := tensor.NewRNG(9)
	for i := 0; i < 3; i++ {
		g := randomUpdate(rng, sizes, 0.4)
		a.Push(1, &g)
		b.Push(1, &g)
	}
	Ga, _ := a.Gather(0)
	frameA := append([]byte(nil), sparse.Encode(&Ga)...)
	var empty sparse.Update
	Gb, _ := b.Push(0, &empty)
	if !bytes.Equal(frameA, sparse.Encode(&Gb)) {
		t.Fatal("Gather frame differs from empty-Push frame")
	}
	va, vb := alloc(sizes), alloc(sizes)
	a.VSnapshot(0, va)
	b.VSnapshot(0, vb)
	for layer := range va {
		for j := range va[layer] {
			if va[layer][j] != vb[layer][j] {
				t.Fatalf("v_0[%d][%d]: Gather %v != empty Push %v", layer, j, va[layer][j], vb[layer][j])
			}
		}
	}
}

// The frame-share soundness property the aggregator relies on: two workers
// whose DownHorizon fingerprints agree (equal horizon, both residual-clean)
// gather bitwise-identical frames against an unchanged M.
func TestDownHorizonFrameShare(t *testing.T) {
	sizes := []int{1024}
	s := NewServer(Config{LayerSizes: sizes, Workers: 3})
	rng := tensor.NewRNG(10)
	for i := 0; i < 3; i++ {
		g := randomUpdate(rng, sizes, 0.3)
		s.Push(2, &g)
	}
	drainGather(t, s, 0, 64)
	drainGather(t, s, 1, 64)
	h0, c0 := s.DownHorizon(0)
	h1, c1 := s.DownHorizon(1)
	if h0 != h1 || !c0 || !c1 {
		t.Fatalf("post-drain fingerprints differ: (%d,%v) vs (%d,%v)", h0, c0, h1, c1)
	}
	// New model churn; both workers still share a fingerprint, so their
	// gathered frames must be byte-identical.
	g := randomUpdate(rng, sizes, 0.2)
	s.Push(2, &g)
	G0, t0 := s.Gather(0)
	frame0 := append([]byte(nil), sparse.Encode(&G0)...)
	G1, t1 := s.Gather(1)
	if t0 != t1 {
		t.Fatalf("gather timestamps diverged: %d vs %d", t0, t1)
	}
	if !bytes.Equal(frame0, sparse.Encode(&G1)) {
		t.Fatal("matching fingerprints gathered different frames")
	}
}

// ApplyGathered is Gather minus the scan: folding worker 0's gathered diff
// into worker 1 (the aggregator's share-cache fast path) must leave worker 1
// in bitwise-identical state to the real gather it replaced — v_k, residual
// bitmap, and dirty-tracking horizon — across many rounds of model churn,
// including rounds with magnitudes chosen to provoke float-rounding
// residuals.
func TestApplyGatheredMatchesGather(t *testing.T) {
	sizes := []int{1024, 130}
	s := NewServer(Config{LayerSizes: sizes, Workers: 3, BlockShift: 5})
	rng := tensor.NewRNG(12)
	shareHits := 0
	for round := 0; round < 40; round++ {
		g := randomUpdate(rng, sizes, 0.3)
		if round%5 == 3 {
			// Large-magnitude churn: makes vl + fl(ml−vl) more likely to
			// round away from ml, exercising the residual bookkeeping.
			for i := range g.Chunks {
				for j := range g.Chunks[i].Val {
					g.Chunks[i].Val[j] *= 4096
				}
			}
		}
		s.Push(2, &g)

		// The aggregator's protocol: share only when the pre-gather
		// fingerprints agree and are clean.
		h0, c0 := s.DownHorizon(0)
		h1, c1 := s.DownHorizon(1)
		G, tSeen := s.Gather(0)
		if c0 && c1 && h0 == h1 {
			s.ApplyGathered(1, &G, tSeen)
			shareHits++
		} else {
			frame0 := append([]byte(nil), sparse.Encode(&G)...)
			G1, t1 := s.Gather(1)
			if t1 != tSeen {
				t.Fatalf("round %d: gather timestamps diverged: %d vs %d", round, t1, tSeen)
			}
			if !bytes.Equal(frame0, sparse.Encode(&G1)) {
				t.Fatalf("round %d: fallback gathers diverged", round)
			}
		}

		// Full state parity after every round, whichever path ran.
		ph0, pc0 := s.DownHorizon(0)
		ph1, pc1 := s.DownHorizon(1)
		if ph0 != ph1 || pc0 != pc1 {
			t.Fatalf("round %d: post fingerprints diverged: (%d,%v) vs (%d,%v)",
				round, ph0, pc0, ph1, pc1)
		}
		v0, v1 := alloc(sizes), alloc(sizes)
		s.VSnapshot(0, v0)
		s.VSnapshot(1, v1)
		for layer := range v0 {
			for j := range v0[layer] {
				if v0[layer][j] != v1[layer][j] {
					t.Fatalf("round %d: v[%d][%d]: gathered %v != share-applied %v",
						round, layer, j, v0[layer][j], v1[layer][j])
				}
			}
		}
		for layer := range s.workers[0].resid {
			if !slices.Equal(s.workers[0].resid[layer], s.workers[1].resid[layer]) {
				t.Fatalf("round %d: layer %d residual bitmaps diverged", round, layer)
			}
		}
	}
	if shareHits == 0 {
		t.Fatal("share fast path never exercised")
	}
	// Both workers must still drain to the bitwise Eq. 5 fixpoint.
	drainGather(t, s, 0, 256)
	drainGather(t, s, 1, 256)
	m, v := alloc(sizes), alloc(sizes)
	s.MSnapshot(m)
	for _, k := range []int{0, 1} {
		s.VSnapshot(k, v)
		for layer := range m {
			for j := range m[layer] {
				if v[layer][j] != m[layer][j] {
					t.Fatalf("post-drain v_%d[%d][%d]=%v != M=%v", k, layer, j, v[layer][j], m[layer][j])
				}
			}
		}
	}
}

// Under secondary compression a truncated gather leaves residual mass
// behind: DownHorizon must report dirty until the worker drains, then clean
// with v_k == M bitwise.
func TestDownHorizonResidualDirty(t *testing.T) {
	sizes := []int{256}
	s := NewServer(Config{LayerSizes: sizes, Workers: 2, Secondary: true, SecondaryRatio: 0.05})
	rng := tensor.NewRNG(11)
	g := randomUpdate(rng, sizes, 1)
	s.Push(1, &g)
	s.Gather(0)
	if _, clean := s.DownHorizon(0); clean {
		t.Fatal("worker 0 reported clean with undelivered residual mass")
	}
	drainGather(t, s, 0, 256)
	if _, clean := s.DownHorizon(0); !clean {
		t.Fatal("worker 0 still dirty after drain")
	}
	m, v := alloc(sizes), alloc(sizes)
	s.MSnapshot(m)
	s.VSnapshot(0, v)
	for j := range m[0] {
		if v[0][j] != m[0][j] {
			t.Fatalf("post-drain v_0[0][%d]=%v != M=%v", j, v[0][j], m[0][j])
		}
	}
}

// TestRestoredDownHorizonNotClean: the aggregator serves one downward frame
// to every worker whose DownHorizon fingerprints are equal and clean. A
// checkpoint does not hold the horizons, so a restored server must not call
// a worker holding touched blocks clean. Here worker 0 drained to M(1) and
// worker 1 to M(2) before the capture: after the restore their next gathers
// differ, so their fingerprints must not both be clean.
func TestRestoredDownHorizonNotClean(t *testing.T) {
	sizes := []int{256, 64}
	cfg := Config{LayerSizes: sizes, Workers: 3, Quiet: true}
	s := NewServer(cfg)
	rng := tensor.NewRNG(5)
	g1, g2 := randomUpdate(rng, sizes, 0.3), randomUpdate(rng, sizes, 0.3)
	s.Push(2, &g1)
	s.Gather(0)
	s.Push(2, &g2)
	s.Gather(1)
	st := s.NewCaptureState()
	if _, err := s.Capture(st); err != nil {
		t.Fatal(err)
	}
	dec, err := checkpoint.Decode(checkpoint.Encode(st))
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreServer(cfg, dec)
	if err != nil {
		t.Fatal(err)
	}
	h0, c0 := r.DownHorizon(0)
	h1, c1 := r.DownHorizon(1)
	G0, _ := r.Gather(0)
	frame0 := append([]byte(nil), sparse.Encode(&G0)...)
	G1, _ := r.Gather(1)
	if bytes.Equal(frame0, sparse.Encode(&G1)) {
		t.Fatal("fixture: the restored workers' gathers should differ")
	}
	if c0 || c1 {
		t.Fatalf("restored fingerprints (%d, %v) and (%d, %v): a worker holding touched blocks reports clean",
			h0, c0, h1, c1)
	}
}
