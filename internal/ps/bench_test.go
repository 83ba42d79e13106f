package ps

import (
	"sort"
	"sync"
	"testing"

	"dgs/internal/sparse"
	"dgs/internal/tensor"
)

// benchSizes mirrors the CIFAR CNN layer geometry.
var benchSizes = []int{864, 32, 9216, 32, 18432, 64, 65536, 128, 1280, 10}

func benchUpdate(rng *tensor.RNG, sizes []int) *sparse.Update {
	return topKUpdate(rng, sizes, 0.01)
}

// topKUpdate builds a push holding the top ratio of each layer of a random
// dense update.
func topKUpdate(rng *tensor.RNG, sizes []int, ratio float64) *sparse.Update {
	u := &sparse.Update{}
	var sel sparse.Selector
	for layer, n := range sizes {
		x := make([]float32, n)
		rng.FillNormal(x, 0, 1)
		sparse.GatherInto(u.NextChunk(), layer, x, sel.TopK(x, sparse.KForRatio(n, ratio)))
	}
	return u
}

// TestPushSteadyStateAllocs locks the zero-allocation exchange: after the
// first push warms the per-worker scratch, Push allocates nothing.
func TestPushSteadyStateAllocs(t *testing.T) {
	srv := NewServer(Config{LayerSizes: benchSizes, Workers: 1})
	g := benchUpdate(tensor.NewRNG(41), benchSizes)
	srv.Push(0, g)
	srv.Push(0, g)
	if allocs := testing.AllocsPerRun(10, func() { srv.Push(0, g) }); allocs > 0 {
		t.Fatalf("steady-state Push allocates %v objects, want 0", allocs)
	}
}

// TestSecondaryPushSteadyStateAllocs extends the zero-allocation invariant
// to the secondary path: the dense difference scratch, the downward chunks
// and the Top-k selector scratch must all reach a steady footprint after
// warmup — on the CNN geometry with one pusher, and on the MLP geometry
// (mlp_dual_pipe's server) with two pushers leading and following batches.
func TestSecondaryPushSteadyStateAllocs(t *testing.T) {
	srv := NewServer(Config{LayerSizes: benchSizes, Workers: 1, Secondary: true, SecondaryRatio: 0.01})
	g := benchUpdate(tensor.NewRNG(41), benchSizes)
	srv.Push(0, g)
	srv.Push(0, g)
	if allocs := testing.AllocsPerRun(10, func() { srv.Push(0, g) }); allocs > 0 {
		t.Fatalf("steady-state secondary Push allocates %v objects, want 0", allocs)
	}

	mlp := NewServer(Config{LayerSizes: fleetMLPSizes, Workers: 2, Secondary: true, SecondaryRatio: 0.05})
	pair := [2]*sparse.Update{topKUpdate(tensor.NewRNG(41), fleetMLPSizes, 0.05), topKUpdate(tensor.NewRNG(42), fleetMLPSizes, 0.05)}
	if allocs := concurrentPushAllocs(mlp, pair); allocs > 0 {
		t.Fatalf("two concurrent steady-state secondary MLP pushes allocate %v objects, want 0", allocs)
	}
}

// TestPushResultValidUntilNextPush documents the aliasing contract: a
// worker's downward update stays intact across other workers' pushes and is
// only overwritten by its own next exchange.
func TestPushResultValidUntilNextPush(t *testing.T) {
	srv := NewServer(Config{LayerSizes: []int{16}, Workers: 2})
	g := &sparse.Update{Chunks: []sparse.Chunk{{Layer: 0, Idx: []int32{3}, Val: []float32{2}}}}
	G0, _ := srv.Push(0, g)
	snapshot := append([]float32(nil), G0.Chunks[0].Val...)
	srv.Push(1, g) // another worker's exchange must not disturb worker 0's view
	for i, v := range G0.Chunks[0].Val {
		if v != snapshot[i] {
			t.Fatal("worker 0's downward update was clobbered by worker 1's push")
		}
	}
}

func BenchmarkPush(b *testing.B) {
	srv := NewServer(Config{LayerSizes: benchSizes, Workers: 1})
	g := benchUpdate(tensor.NewRNG(42), benchSizes)
	srv.Push(0, g) // warm the per-worker scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Push(0, g)
	}
}

func BenchmarkPushSecondary(b *testing.B) {
	srv := NewServer(Config{LayerSizes: benchSizes, Workers: 1, Secondary: true, SecondaryRatio: 0.01})
	g := benchUpdate(tensor.NewRNG(43), benchSizes)
	srv.Push(0, g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Push(0, g)
	}
}

// The two geometries the end-to-end benchmark's server-side workloads run
// on: the embedding fleet (four tables of 2^19, a push updates 64 whole
// 64-element rows) and the 330k-parameter MLP (64-512-512-64, 5 % Top-k).
var (
	fleetEmbedSizes = []int{1 << 19, 1 << 19, 1 << 19, 1 << 19}
	fleetMLPSizes   = []int{32768, 512, 262144, 512, 32768, 64}
)

// resnet18Sizes is the paper's model: the parameter tensors of ResNet-18
// with its 1000-class head, in order — each convolution, each batch-norm γ
// and β, the classifier's weight and bias — 11,689,512 parameters in all.
func resnet18Sizes() []int {
	var sizes []int
	conv := func(out, in, k int) { sizes = append(sizes, out*in*k*k) }
	bn := func(c int) { sizes = append(sizes, c, c) }
	conv(64, 3, 7)
	bn(64)
	in := 64
	for _, c := range []int{64, 128, 256, 512} {
		for block := 0; block < 2; block++ {
			conv(c, in, 3)
			bn(c)
			conv(c, c, 3)
			bn(c)
			if in != c { // the first block of a wider stage projects its input
				conv(c, in, 1)
				bn(c)
			}
			in = c
		}
	}
	sizes = append(sizes, 512*1000, 1000)
	return sizes
}

// TestResNet18Sizes pins the arithmetic: 62 tensors, 11,689,512 parameters,
// the largest 512·512·3·3.
func TestResNet18Sizes(t *testing.T) {
	sizes := resnet18Sizes()
	total, largest := 0, 0
	for _, n := range sizes {
		total += n
		largest = max(largest, n)
	}
	if len(sizes) != 62 || total != 11689512 || largest != 512*512*9 {
		t.Fatalf("%d tensors, %d parameters, largest %d; want 62, 11689512, %d", len(sizes), total, largest, 512*512*9)
	}
}

// embedRowUpdate builds one row-clustered embedding push.
func embedRowUpdate(rng *tensor.RNG, sizes []int) *sparse.Update {
	const rowWidth, rowsPerPush = 64, 64
	rows := make([][]int, len(sizes))
	picked := map[[2]int]bool{}
	for len(picked) < rowsPerPush {
		table := rng.Intn(len(sizes))
		row := rng.Intn(sizes[table] / rowWidth)
		if !picked[[2]int{table, row}] {
			picked[[2]int{table, row}] = true
			rows[table] = append(rows[table], row)
		}
	}
	u := &sparse.Update{}
	for table, rs := range rows {
		if len(rs) == 0 {
			continue
		}
		sort.Ints(rs)
		c := u.NextChunk()
		c.Layer = table
		for _, r := range rs {
			for j := 0; j < rowWidth; j++ {
				c.Idx = append(c.Idx, int32(r*rowWidth+j))
			}
		}
		c.Val = make([]float32, len(c.Idx))
		rng.FillNormal(c.Val, 0, 0.01)
	}
	return u
}

// BenchmarkPushFleet is Push under the contention the fleet workloads put
// on it: every pusher goroutine owns one worker slot and cycles its own
// pre-built updates, all against one server. ns/op is wall time per push
// over all pushers; updates/batch is the mean number of updates one hold of
// the model write lock applied. Each geometry runs at the auto-tuned block
// and at the other candidate (DESIGN.md §11 records both). resnet18_secondary
// is the paper's scale: Top-1 % pushes of ResNet-18 from eight workers with
// Eq. 6 at 1 % (DESIGN.md §13). Every other case builds a fresh server per
// run; that one builds its ≈0.6 GB server and its updates once per process
// (later runs, -count repeats and -cpu values push into a warmed server), and
// each pusher cycles two updates, not sixteen, so setup stays in seconds.
func BenchmarkPushFleet(b *testing.B) {
	resnet18 := resnet18Sizes()
	for _, bc := range []struct {
		name     string
		cfg      Config
		pushers  int
		variants int
		once     bool // build the server once per process, not per run
		build    func(rng *tensor.RNG) *sparse.Update
	}{
		// 17 slots, 16 pushers: the spare is embed_push_read's replica slot.
		{"embed/auto", Config{LayerSizes: fleetEmbedSizes, Workers: 17}, 16, 16, false,
			func(rng *tensor.RNG) *sparse.Update { return embedRowUpdate(rng, fleetEmbedSizes) }},
		{"embed/block1024", Config{LayerSizes: fleetEmbedSizes, Workers: 17, BlockShift: 10}, 16, 16, false,
			func(rng *tensor.RNG) *sparse.Update { return embedRowUpdate(rng, fleetEmbedSizes) }},
		{"mlp_secondary/auto", Config{LayerSizes: fleetMLPSizes, Workers: 2, Secondary: true, SecondaryRatio: 0.05}, 2, 16, false,
			func(rng *tensor.RNG) *sparse.Update { return topKUpdate(rng, fleetMLPSizes, 0.05) }},
		{"mlp_secondary/block64", Config{LayerSizes: fleetMLPSizes, Workers: 2, Secondary: true, SecondaryRatio: 0.05, BlockShift: 6}, 2, 16, false,
			func(rng *tensor.RNG) *sparse.Update { return topKUpdate(rng, fleetMLPSizes, 0.05) }},
		{"resnet18_secondary", Config{LayerSizes: resnet18, Workers: 8, Secondary: true, SecondaryRatio: 0.01}, 8, 2, true,
			func(rng *tensor.RNG) *sparse.Update { return topKUpdate(rng, resnet18, 0.01) }},
	} {
		var srv *Server
		var updates [][]*sparse.Update
		b.Run(bc.name, func(b *testing.B) {
			if srv == nil || !bc.once { // the framework re-enters per b.N and -cpu value
				bc.cfg.Quiet = true
				srv = NewServer(bc.cfg)
				rng := tensor.NewRNG(44)
				updates = make([][]*sparse.Update, bc.pushers)
				for k := range updates {
					for v := 0; v < bc.variants; v++ {
						updates[k] = append(updates[k], bc.build(rng))
					}
					srv.Push(k, updates[k][0]) // warm the per-worker scratch
				}
			}
			pushes0, batches0 := srv.pushes.Load(), srv.applyBatches.Load()
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for k := 0; k < bc.pushers; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					for i := k; i < b.N; i += bc.pushers {
						srv.Push(k, updates[k][i/bc.pushers%bc.variants])
					}
				}(k)
			}
			wg.Wait()
			b.StopTimer()
			if batches := srv.applyBatches.Load() - batches0; batches > 0 {
				b.ReportMetric(float64(srv.pushes.Load()-pushes0)/float64(batches), "updates/batch")
			}
		})
	}
}
