package ps

import (
	"fmt"
	"math"
	"testing"

	"dgs/internal/checkpoint"
	"dgs/internal/raceflag"
	"dgs/internal/sparse"
	"dgs/internal/tensor"
)

// requireResidInvariant asserts the residual tracker's invariant on every
// worker of s: a block holding a nonzero M − v_k is version-dirty against
// the worker's horizon or has its residual bit set. A gather skips exactly
// the blocks outside that set, so a violation is a difference that would
// never ship again.
func requireResidInvariant(t *testing.T, label string, s *Server) {
	t.Helper()
	for k := range s.workers {
		w := &s.workers[k]
		func() {
			w.mu.Lock()
			defer w.mu.Unlock()
			s.mu.RLock()
			defer s.mu.RUnlock()
			for layer, ml := range s.m {
				vl := w.v[layer]
				for b := range s.mver[layer] {
					if dirty(s.mver[layer], w.resid[layer], b, w.syncVer) {
						continue
					}
					lo, hi := sparse.BlockSpan(b, s.blockShift, len(ml))
					for j := lo; j < hi; j++ {
						if d := ml[j] - vl[j]; d != 0 {
							t.Fatalf("%s: worker %d layer %d block %d holds M − v_k = %v at %d but is version-clean with its residual bit clear",
								label, k, layer, b, d, j)
						}
					}
				}
			}
		}()
	}
}

// scheduled is what the schedule drives: a Server or a ShardedServer.
type scheduled interface {
	Pusher
	DownFolder
	NewCaptureState() *checkpoint.State
	Capture(*checkpoint.State) (checkpoint.CaptureStats, error)
}

func shardsOf(p scheduled) []*Server {
	if s, ok := p.(*ShardedServer); ok {
		return s.shards
	}
	return []*Server{p.(*Server)}
}

// globalState copies M (worker < 0) or worker's v_k into dst, by global
// layer id.
func globalState(p scheduled, worker int, dst [][]float32) {
	for sh, shard := range shardsOf(p) {
		local := dst
		if s, ok := p.(*ShardedServer); ok {
			local = make([][]float32, len(s.globalOf[sh]))
			for i, gl := range s.globalOf[sh] {
				local[i] = dst[gl]
			}
		}
		if worker < 0 {
			shard.MSnapshot(local)
		} else {
			shard.VSnapshot(worker, local)
		}
	}
}

// requireSameFrame is requireSameUpdate for a frame whose chunks may come in
// any layer order (a ShardedServer merges them shard by shard).
func requireSameFrame(t *testing.T, step int, got, want *sparse.Update) {
	t.Helper()
	var sorted sparse.Update
	for layer := 0; len(sorted.Chunks) < len(got.Chunks); layer++ {
		for i := range got.Chunks {
			if got.Chunks[i].Layer == layer {
				sorted.Chunks = append(sorted.Chunks, got.Chunks[i])
			}
		}
	}
	requireSameUpdate(t, step, &sorted, want)
}

// baselineFold is Server.FoldDown on the frozen baseline, which has none:
// the same single subtraction v_k −= e at e's coordinates.
func baselineFold(b *BaselineServer, worker int, e *sparse.Update) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range e.Chunks {
		c := &e.Chunks[i]
		for j, idx := range c.Idx {
			b.v[worker][c.Layer][idx] -= c.Val[j]
		}
	}
}

// sbcError is the error the SBC downward codec leaves on frame G: per
// chunk, every positive value becomes the positive mean and every negative
// one the negative mean, and e = G − q wherever that is not zero.
func sbcError(G *sparse.Update) *sparse.Update {
	c, err := sparse.CodecByName("sbc")
	if err != nil {
		panic(err)
	}
	var q, e sparse.Update
	c.(sparse.Quantizer).Quantize(&q, G, &e)
	return &e
}

// TestSecondaryScheduleProperty drives seeded random multi-worker schedules
// through a Secondary Server or ShardedServer and the frozen full-scan
// BaselineServer side by side: pushes whose values span 2^±25 (so rounding
// slivers occur), empty pushes, Resync, FoldDown of the SBC codec's error
// on the worker's last frame, and Capture → Encode → Decode → Restore of the
// server mid-stream (a ShardedServer, which has no restore, stops at
// Decode). Every downward frame must be bitwise the baseline's,
// the residual invariant must hold after every operation, M and every v_k
// must match bitwise, and draining every worker must end at v_k == M.
func TestSecondaryScheduleProperty(t *testing.T) {
	sizes := []int{17, 1100, 3, 200} // one layer past the selector's exact stage
	// The schedule itself is sequential; under -race, where it runs ten times
	// slower, one seed still races the shard pool against every operation.
	seeds := uint64(2)
	if raceflag.Enabled {
		seeds = 1
	}
	for _, ratio := range []float64{1e-9, 0.05, 0.5, 1} {
		for _, shift := range []uint{0, 6} {
			for _, shards := range []int{1, 2} {
				for seed := uint64(1); seed <= seeds; seed++ {
					name := fmt.Sprintf("R=%g/shift=%d/shards=%d/seed=%d", ratio, shift, shards, seed)
					t.Run(name, func(t *testing.T) {
						cfg := Config{LayerSizes: sizes, Workers: 3, Secondary: true, SecondaryRatio: ratio, BlockShift: shift, Quiet: true}
						runSecondarySchedule(t, cfg, shards, seed)
					})
				}
			}
		}
	}
}

func runSecondarySchedule(t *testing.T, cfg Config, shards int, seed uint64) {
	sizes, workers := cfg.LayerSizes, cfg.Workers
	build := func() scheduled {
		if shards > 1 {
			return NewShardedServer(cfg, shards)
		}
		return NewServer(cfg)
	}
	cur, base := build(), NewBaselineServer(cfg)
	rng := tensor.NewRNG(0x5EC0 + seed)
	folds := make([]*sparse.Update, workers) // error of each worker's last frame, not yet folded

	invariant := func(label string) {
		t.Helper()
		for _, shard := range shardsOf(cur) {
			requireResidInvariant(t, label, shard)
		}
	}
	sameState := func(label string) {
		t.Helper()
		a, b := alloc(sizes), alloc(sizes)
		for k := -1; k < workers; k++ {
			globalState(cur, k, a)
			if k < 0 {
				base.MSnapshot(b)
			} else {
				base.VSnapshot(k, b)
			}
			for l := range a {
				for j := range a[l] {
					if math.Float32bits(a[l][j]) != math.Float32bits(b[l][j]) {
						t.Fatalf("%s: state %d (−1 = M) layer %d index %d: %v, baseline %v", label, k, l, j, a[l][j], b[l][j])
					}
				}
			}
		}
	}
	push := func(step, k int, g *sparse.Update) sparse.Update {
		t.Helper()
		G1, t1 := cur.Push(k, g)
		G2, t2 := base.Push(k, g)
		if _, single := cur.(*Server); single && t1 != t2 {
			t.Fatalf("step %d: timestamp %d vs baseline %d", step, t1, t2)
		}
		requireSameFrame(t, step, &G1, &G2)
		return G1
	}

	for step := 0; step < 300; step++ {
		k := rng.Intn(workers)
		switch op := rng.Intn(20); {
		case op == 0:
			cur.Resync(k)
			base.Resync(k)
			folds[k] = nil
		case op == 1:
			st := cur.NewCaptureState()
			if _, err := cur.Capture(st); err != nil {
				t.Fatal(err)
			}
			dec, err := checkpoint.Decode(checkpoint.Encode(st))
			if err != nil {
				t.Fatalf("step %d: decode: %v", step, err)
			}
			if shards > 1 {
				break
			}
			if cur, err = RestoreServer(cfg, dec); err != nil {
				t.Fatalf("step %d: restore: %v", step, err)
			}
		case op < 5 && folds[k] != nil:
			cur.FoldDown(k, folds[k])
			baselineFold(base, k, folds[k])
			folds[k] = nil
		case op < 8:
			var empty sparse.Update
			G := push(step, k, &empty)
			folds[k] = sbcError(&G)
		default:
			g := randomUpdate(rng, sizes, 0.2)
			scale := float32(math.Pow(2, float64(rng.Intn(51)-25)))
			for ci := range g.Chunks {
				for vi := range g.Chunks[ci].Val {
					g.Chunks[ci].Val[vi] *= scale
				}
			}
			G := push(step, k, &g)
			folds[k] = sbcError(&G)
		}
		invariant(fmt.Sprintf("step %d", step))
		if step%50 == 49 {
			sameState(fmt.Sprintf("step %d", step))
		}
	}
	sameState("end of schedule")

	for k := 0; k < workers; k++ {
		for round := 0; ; round++ {
			var empty sparse.Update
			if G := push(10000+round, k, &empty); G.NNZ() == 0 {
				break
			}
			if round > 5000 {
				t.Fatalf("worker %d did not drain", k)
			}
		}
	}
	invariant("drained")
	sameState("drained")
	m, v := alloc(sizes), alloc(sizes)
	globalState(cur, -1, m)
	for k := 0; k < workers; k++ {
		globalState(cur, k, v)
		for l := range m {
			for j := range m[l] {
				if math.Float32bits(m[l][j]) != math.Float32bits(v[l][j]) {
					t.Fatalf("drained: v_%d[%d][%d] = %v != M = %v", k, l, j, v[l][j], m[l][j])
				}
			}
		}
	}
}

// TestRestoreRescansSuppressedResidual restores a checkpoint taken while
// version-clean blocks hold suppressed Eq. 6 mass. The file stores no
// residual bits, so restore must rescan those blocks on its own: the
// restored server must drain exactly as the never-restarted one does.
func TestRestoreRescansSuppressedResidual(t *testing.T) {
	sizes := []int{4096, 64}
	cfg := Config{LayerSizes: sizes, Workers: 2, Secondary: true, SecondaryRatio: 0.05, Quiet: true}
	s := NewServer(cfg)
	g := randomUpdate(tensor.NewRNG(31), sizes, 1)
	var empty sparse.Update
	s.Push(1, &g)
	s.Push(0, &empty) // worker 0 receives 5 %; the rest stays in M − v_0
	// Worker 1 moves layer 1 only: layer 0 is version-clean for worker 0.
	s.Push(1, &sparse.Update{Chunks: []sparse.Chunk{{Layer: 1, Idx: []int32{3}, Val: []float32{0.5}}}})

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
	for round := 0; ; round++ {
		G1, _ := s.Push(0, &empty)
		G2, _ := r.Push(0, &empty)
		requireSameUpdate(t, round, &G2, &G1)
		if G1.NNZ() == 0 {
			break
		}
		if round > 1000 {
			t.Fatal("worker 0 did not drain")
		}
	}
	m, v := alloc(sizes), alloc(sizes)
	r.MSnapshot(m)
	r.VSnapshot(0, v)
	for l := range m {
		for j := range m[l] {
			if math.Float32bits(m[l][j]) != math.Float32bits(v[l][j]) {
				t.Fatalf("restored drain: v_0[%d][%d] = %v != M = %v", l, j, v[l][j], m[l][j])
			}
		}
	}
}

// warmKind classifies the Eq. 6 selection worker w's next gather of layer
// will make, from the state both servers hold: "cold" before the layer's
// Selector has a floor, "hit" when the candidates at the floor are
// accepted, "few" when fewer than k are there, "over" when more than the
// candidate bound are (or the floor is 0), and "" when there is nothing to
// select. keepAll reports that k is the layer's nonzero count and below
// KForRatio: the gather ships every nonzero M − v_k there.
func warmKind(s *Server, b *BaselineServer, worker, layer int) (kind string, keepAll bool) {
	m, v := alloc(s.cfg.LayerSizes), alloc(s.cfg.LayerSizes)
	b.MSnapshot(m)
	b.VSnapshot(worker, v)
	floor, warm := s.workers[worker].sel[layer].Floor()
	count, nnz := 0, 0
	for j := range m[layer] {
		if mag := math.Float32bits(m[layer][j]-v[layer][j]) & 0x7fffffff; mag != 0 {
			nnz++
			if mag >= floor {
				count++
			}
		}
	}
	K := sparse.KForRatio(len(m[layer]), s.cfg.SecondaryRatio)
	k := min(K, nnz)
	switch {
	case k == 0:
		return "", false
	case !warm:
		kind = "cold"
	case count < k:
		kind = "few"
	case floor == 0 || count > sparse.CandidateBound(k):
		kind = "over"
	default:
		kind = "hit"
	}
	return kind, k < K
}

// TestSecondaryWarmStartPaths holds the Eq. 6 gather of a layer longer than
// the candidate bound (9000 coordinates, k = 450, bound 4096) to the frozen
// full-scan BaselineServer on every path its selection can take. Worker 1
// pushes Top-20 % updates; after each, worker 0 gathers with an empty push.
// The schedule forces the first (cold) gather, quiet ×10⁻³ steps that leave
// fewer than k over the floor, and a dense ×10³ spike that puts the whole
// layer over it, between settled steps that hit; then worker 0 drains, so
// its last gathers keep every nonzero. Every frame, M and v_k must be
// bitwise the baseline's, the server's miss counter must move exactly on
// the predicted misses, and every path must occur.
func TestSecondaryWarmStartPaths(t *testing.T) {
	sizes := []int{9000, 300}
	steps := []struct {
		name  string
		scale float32
		dense bool
		want  string
	}{
		{"first", 1, false, "cold"},
		{"settle", 1, false, ""},
		{"settle", 1, false, ""},
		{"warm", 1, false, "hit"},
		{"quiet ×1e-3", 1e-3, false, ""},
		{"quiet ×1e-3", 1e-3, false, "few"},
		{"settle", 1, false, ""},
		{"settle", 1, false, ""},
		{"settle", 1, false, ""},
		{"warm", 1, false, "hit"},
		{"spike ×1e3", 1e3, true, "over"},
		{"settle", 1, false, ""},
		{"settle", 1, false, ""},
	}
	for _, shift := range []uint{0, 2} {
		t.Run(fmt.Sprintf("shift=%d", shift), func(t *testing.T) {
			cfg := Config{LayerSizes: sizes, Workers: 2, Secondary: true, SecondaryRatio: 0.05, BlockShift: shift, Quiet: true}
			cur, base := NewServer(cfg), NewBaselineServer(cfg)
			rng := tensor.NewRNG(0x3A7)
			seen := map[string]int{}
			keptAll := 0
			gather := func(step int, label, want string) int {
				t.Helper()
				kind, keepAll := warmKind(cur, base, 0, 0)
				if want != "" && kind != want {
					t.Fatalf("%s: layer 0 gather predicted %q, want %q", label, kind, want)
				}
				misses := cur.secMisses.Load()
				var empty sparse.Update
				G1, _ := cur.Push(0, &empty)
				G2, _ := base.Push(0, &empty)
				requireSameUpdate(t, step, &G1, &G2)
				missed := cur.secMisses.Load() - misses
				if wantMiss := kind == "cold" || kind == "few" || kind == "over"; missed != 0 != wantMiss || missed > 1 {
					t.Fatalf("%s: predicted %q, server counted %d misses", label, kind, missed)
				}
				seen[kind]++
				if keepAll {
					keptAll++
				}
				requireResidInvariant(t, label, cur)
				return G1.NNZ()
			}
			for i, st := range steps {
				density := 0.2
				if st.dense {
					density = 1
				}
				g := randomUpdate(rng, sizes, density)
				for ci := range g.Chunks {
					for vi := range g.Chunks[ci].Val {
						g.Chunks[ci].Val[vi] *= st.scale
					}
				}
				G1, _ := cur.Push(1, &g)
				G2, _ := base.Push(1, &g)
				requireSameUpdate(t, i, &G1, &G2)
				gather(i, fmt.Sprintf("step %d (%s)", i, st.name), st.want)
			}
			for round := 0; gather(len(steps)+round, fmt.Sprintf("drain %d", round), "") > 0; round++ {
				if round > 1000 {
					t.Fatal("worker 0 did not drain")
				}
			}
			requireSameState(t, "drained", sizes, cur, base, cfg.Workers)
			for _, kind := range []string{"cold", "hit", "few", "over"} {
				if seen[kind] == 0 {
					t.Errorf("no layer-0 gather took the %q path (%v)", kind, seen)
				}
			}
			if keptAll == 0 {
				t.Errorf("no layer-0 gather kept every nonzero")
			}
			t.Logf("paths %v, %d keep-all gathers", seen, keptAll)
		})
	}
}
