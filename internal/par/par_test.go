package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dgs/internal/raceflag"
)

// TestEachVisitsEveryIndexOnce runs Each over part counts below, at and above
// the goroutine count, at GOMAXPROCS 1, 2 and 4: every index is visited
// exactly once, every write is visible when Each returns, and no goroutine
// outlives the call.
func TestEachVisitsEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
			t.Run(fmt.Sprintf("procs=%d/n=%d", procs, n), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				base := runtime.NumGoroutine()
				visits := make([]int32, n) // plain writes: each index is one part's alone
				var calls atomic.Int64
				Each(n, func(i int) {
					visits[i]++
					calls.Add(1)
				})
				if got := calls.Load(); got != int64(n) {
					t.Fatalf("%d calls, want %d", got, n)
				}
				for i, v := range visits {
					if v != 1 {
						t.Fatalf("index %d visited %d times", i, v)
					}
				}
				requireGoroutinesBack(t, base)
			})
		}
	}
}

// TestEachSerialOnOneProc: at GOMAXPROCS 1 the parts run in index order on
// the caller's goroutine, and a call allocates nothing.
func TestEachSerialOnOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var order []int
	Each(5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("order %v, want 0..4 in sequence", order)
		}
	}
	sum := 0
	do := func(i int) { sum += i }
	if allocs := testing.AllocsPerRun(20, func() { Each(8, do) }); allocs > 0 {
		t.Fatalf("serial Each allocates %v objects, want 0", allocs)
	}
}

// TestEachParallelAllocs: on two procs, a call whose body was built once
// allocates nothing in steady state — its bookkeeping comes from a pool and
// its helper goroutine starts from a bound method value. testing.AllocsPerRun
// pins GOMAXPROCS 1, so the test counts runtime.MemStats mallocs itself; the
// runtime may allocate a goroutine descriptor now and then, so it fails only
// at a whole allocation per call or more.
func TestEachParallelAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const calls = 200
	var sum [8]int
	do := func(i int) { sum[i] += i }
	for range calls {
		Each(len(sum), do)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		Each(len(sum), do)
	}
	runtime.ReadMemStats(&after)
	if per := (after.Mallocs - before.Mallocs) / calls; per > 0 {
		t.Fatalf("parallel Each allocates %d objects per call, want 0", per)
	}
}

// TestEachRunsPartsConcurrently: with two procs, the caller and one helper
// each hold a part at the same time, so a part that waits for another one to
// start completes instead of deadlocking the serial loop.
func TestEachRunsPartsConcurrently(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		Each(2, func(i int) {
			if i == 0 {
				<-started
			} else {
				close(started)
			}
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Each ran its two parts one after the other")
	}
}

// requireGoroutinesBack waits for the goroutine count to return to base. A
// helper goroutine exits just after it signals completion, so the count may
// lag the return from Each by a scheduler tick; it must never stay above.
func requireGoroutinesBack(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before Each:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
