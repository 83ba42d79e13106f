package agg

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"dgs/internal/checkpoint"
	"dgs/internal/ps"
	"dgs/internal/sparse"
	"dgs/internal/tensor"
)

// The parallel fan-out against a serial reference: one mirror answers
// seeded windows through fanout.run, a second mirror driven identically
// answers them with one Gather per contributor, and after every window the
// two must agree bitwise on every frame, v_k, residual bitmap and vver
// stamp. The windows mix residual-dirty slots, several clean fingerprint
// groups and freshly resynced slots; GOMAXPROCS 1 is the serial loop, 4
// runs each phase on four goroutines.
func TestFanOutMatchesSerialGather(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			fanOutVsSerial(t, 41)
		})
	}
}

func fanOutVsSerial(t *testing.T, seed uint64) {
	const slots, windows = 12, 48
	sizes := []int{1024, 130}
	cfg := ps.Config{LayerSizes: sizes, Workers: slots, BlockShift: 5, Quiet: true}
	fan, ref := ps.NewServer(cfg), ps.NewServer(cfg)
	pend := make([]*pending, slots)
	for k := range pend {
		pend[k] = &pending{slot: k, ready: make(chan struct{}, 1)}
	}
	var f fanout
	var cover struct{ dirty, groups, resynced, shared int }

	// window runs one aggregation window on both mirrors: the same diff
	// applied once, then the fan-out on one and serial gathers on the
	// other. It reports whether every frame was empty.
	window := func(w int, diff *sparse.Update, parts []*pending) (empty bool) {
		t.Helper()
		tPrev := fan.Timestamp()
		fan.ApplyDiff(diff)
		ref.ApplyDiff(diff)

		clean := map[uint64]bool{}
		for _, p := range parts {
			if h, ok := fan.DownHorizon(p.slot); ok {
				clean[h] = true
			} else {
				cover.dirty++
			}
		}
		if len(clean) >= 2 {
			cover.groups++
		}

		shared, encoded := f.run(fan, parts)
		if shared+encoded != uint64(len(parts)) {
			t.Fatalf("window %d: %d shared + %d encoded frames for %d parts", w, shared, encoded, len(parts))
		}
		cover.shared += int(shared)
		empty = true
		for _, p := range parts {
			select {
			case <-p.ready:
			default:
				t.Fatalf("window %d: slot %d was not answered", w, p.slot)
			}
			if p.err != nil {
				t.Fatalf("window %d: slot %d answered with %v", w, p.slot, p.err)
			}
			G, _ := ref.Gather(p.slot)
			if !bytes.Equal(p.resp, sparse.Encode(&G)) {
				t.Fatalf("window %d: slot %d frame differs from its serial gather", w, p.slot)
			}
			empty = empty && G.NNZ() == 0
		}
		requireSameMirrors(t, fmt.Sprintf("window %d", w), fan, ref, tPrev)
		return empty
	}

	rng := tensor.NewRNG(seed)
	var spike sparse.Update
	for w := 0; w < windows; w++ {
		// Model churn. Every fourth window adds a 1e7-scale spike that the
		// next window takes back out: a slot that gathered the spike then
		// gathers a difference the float sum v + fl(M − v) cannot land on
		// exactly, which leaves residual bits — the dirty slots.
		diff := randUpdate(rng, sizes, 0.3)
		switch w % 4 {
		case 1:
			spike = randUpdate(rng, sizes, 0.2)
			for i := range spike.Chunks {
				for j := range spike.Chunks[i].Val {
					spike.Chunks[i].Val[j] *= 1e7
				}
			}
			diff = spike
		case 2:
			diff = spike
			for i := range diff.Chunks {
				for j := range diff.Chunks[i].Val {
					diff.Chunks[i].Val[j] = -diff.Chunks[i].Val[j]
				}
			}
		}

		// Eight to twelve contributors in slot order; the slots left out
		// keep older horizons, which is what forms several clean groups.
		order := rng.Perm(slots)
		n := 8 + rng.Intn(slots-7)
		if w%6 == 4 {
			// A rejoin since the last window: resync one slot on both
			// mirrors and make sure it contributes.
			k := order[rng.Intn(slots)]
			fan.Resync(k)
			ref.Resync(k)
			i := slices.Index(order, k)
			order[0], order[i] = order[i], order[0]
			cover.resynced++
		}
		chosen := slices.Clone(order[:n])
		slices.Sort(chosen)
		parts := make([]*pending, n)
		for i, k := range chosen {
			parts[i] = pend[k]
		}
		window(w, &diff, parts)
	}
	if cover.dirty == 0 || cover.groups == 0 || cover.resynced == 0 || cover.shared == 0 {
		t.Fatalf("schedule did not cover the fan-out's cases: %+v", cover)
	}
	t.Logf("dirty contributors %d, windows with ≥2 clean groups %d, resynced %d, shared frames %d",
		cover.dirty, cover.groups, cover.resynced, cover.shared)

	// Eq. 5 drain: empty upstream diffs until every slot's frame is empty,
	// after which v_k == M bitwise on both mirrors.
	var none sparse.Update
	for r := 0; !window(windows+r, &none, pend); r++ {
		if r == 64 {
			t.Fatal("mirror not drained after 64 windows")
		}
	}
	m, v := alloc(sizes), alloc(sizes)
	fan.MSnapshot(m)
	for k := 0; k < slots; k++ {
		fan.VSnapshot(k, v)
		requireBitwise(t, fmt.Sprintf("post-drain v_%d vs M", k), v, m)
	}
}

// requireSameMirrors compares the two mirrors' complete state through
// checkpoint captures with horizon since, taken into V buffers pre-filled
// with a NaN sentinel, and through every slot's DownHorizon fingerprint. A
// capture copies M and MVer blocks stamped after since, every worker's prev
// and epoch, and exactly the v-blocks whose vver stamp is newer than since —
// so the sentinel left in the others pins the set of v-blocks each window
// stamped. Every stamp a window writes is its own clock, so equal sets
// window after window are equal vver arrays. The fingerprint covers what a
// capture does not hold: each slot's dirty-tracking horizon and whether any
// residual bit is set.
func requireSameMirrors(t *testing.T, what string, a, b *ps.Server, since uint64) {
	t.Helper()
	ca, cb := captureSince(t, a, since), captureSince(t, b, since)
	for k := range ca.Shards[0].Workers {
		ha, cla := a.DownHorizon(k)
		hb, clb := b.DownHorizon(k)
		if ha != hb || cla != clb {
			t.Fatalf("%s: slot %d fingerprint (%d, clean %v) vs reference (%d, %v)", what, k, ha, cla, hb, clb)
		}
	}
	if !bytes.Equal(checkpoint.Encode(ca), checkpoint.Encode(cb)) {
		for k := range ca.Shards[0].Workers {
			wa, wb := &ca.Shards[0].Workers[k], &cb.Shards[0].Workers[k]
			if wa.Prev != wb.Prev || wa.Epoch != wb.Epoch {
				t.Fatalf("%s: slot %d clocks (prev %d, epoch %d) vs reference (%d, %d)",
					what, k, wa.Prev, wa.Epoch, wb.Prev, wb.Epoch)
			}
			for l := range wa.V {
				for j := range wa.V[l] {
					if math.Float32bits(wa.V[l][j]) != math.Float32bits(wb.V[l][j]) {
						t.Fatalf("%s: slot %d v[%d][%d] (or its vver stamp) differs: %v vs %v",
							what, k, l, j, wa.V[l][j], wb.V[l][j])
					}
				}
			}
		}
		t.Fatalf("%s: model state differs from the reference", what)
	}
}

func captureSince(t *testing.T, s *ps.Server, since uint64) *checkpoint.State {
	t.Helper()
	sentinel := math.Float32frombits(0x7fc0dead)
	st := s.NewCaptureState()
	sh := &st.Shards[0]
	sh.CapturedT = since
	for k := range sh.Workers {
		for _, l := range sh.Workers[k].V {
			for j := range l {
				l[j] = sentinel
			}
		}
	}
	if _, err := s.Capture(st); err != nil {
		t.Fatal(err)
	}
	st.WallNano = 0
	return st
}

// The fan-out's goroutines are joined inside every window: once an
// aggregator that fanned out windows of eight on four goroutines has been
// closed — or killed with exchanges in flight — the process is back to the
// goroutines it had before the aggregator existed.
func TestFanOutLeaksNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	sizes := []int{512, 64}
	const workers = 8
	for _, stop := range []string{"Close", "Kill"} {
		t.Run(stop, func(t *testing.T) {
			_, srv := startUpstream(t, ps.Config{LayerSizes: sizes, Workers: 1})
			base := runtime.NumGoroutine()
			a, err := New(Config{
				LayerSizes: sizes, MaxWorkers: workers,
				Window: workers, WindowWait: 20 * time.Millisecond, Depth: 2,
				Dial: dialUp(srv.Addr()),
			})
			if err != nil {
				t.Fatal(err)
			}
			clients := make([]*aggClient, workers)
			for k := range clients {
				clients[k] = newAggClient(t, a, k, sizes)
			}

			// Every worker pushes until the aggregator stops answering (Kill)
			// or its rounds are done (Close).
			const rounds = 12
			var wg sync.WaitGroup
			started := make(chan struct{}, workers)
			for k, c := range clients {
				wg.Add(1)
				go func(k int, c *aggClient) {
					defer wg.Done()
					warm := false
					defer func() {
						if !warm {
							started <- struct{}{}
						}
					}()
					rng := tensor.NewRNG(500 + uint64(k))
					for r := 0; r < rounds || stop == "Kill"; r++ {
						g := randUpdate(rng, sizes, 0.2)
						if _, err := c.push(&g); err != nil {
							if stop == "Close" {
								t.Errorf("worker %d push %d: %v", k, r, err)
							}
							return
						}
						if r == 2 {
							warm = true
							started <- struct{}{}
						}
					}
				}(k, c)
			}
			for range workers {
				<-started
			}
			if stop == "Kill" {
				a.Kill()
				wg.Wait()
			} else {
				wg.Wait()
				a.Close()
			}
			for _, c := range clients {
				c.close()
			}
			if st := a.Stats(); st.SharedFrames+st.EncodedFrames == 0 {
				t.Fatalf("stats %+v: no window was fanned out", st)
			}

			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines after %s, %d before the aggregator:\n%s",
						runtime.NumGoroutine(), stop, base, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}
