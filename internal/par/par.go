// Package par is the repository's one fan-out: it runs the independent parts
// of a job on every core and returns when all of them are done. The
// optimisers' per-layer Top-k, the parameter server's shards, the
// aggregator's per-window answers and the synchronous baseline's replicas all
// use it.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls do(i) for every i in [0, n) and returns once every call has
// returned. The calls run on min(GOMAXPROCS, n) goroutines, the caller being
// one of them, which claim indices one at a time from a shared cursor, so one
// slow part does not hold back a fixed share of the rest. At GOMAXPROCS 1, or
// for a single part, it is the plain serial loop on the caller's goroutine.
// Either way Each itself allocates nothing in steady state (the parallel
// call's bookkeeping is pooled); a caller that passes a method value or a
// closure built once allocates nothing per call. Calls for distinct indices
// may run concurrently, so do must not share unguarded state between them;
// everything do wrote is visible to the caller once Each returns.
func Each(n int, do func(i int)) {
	procs := min(runtime.GOMAXPROCS(0), n)
	if procs <= 1 {
		for i := range n {
			do(i)
		}
		return
	}
	f := fans.Get().(*fan)
	f.n, f.do = n, do
	f.next.Store(0)
	f.wg.Add(procs - 1)
	for range procs - 1 {
		go f.runFn()
	}
	f.claim()
	f.wg.Wait()
	f.do = nil // the pool must not keep the caller's state reachable
	fans.Put(f)
}

// fan is one parallel Each call: the cursor its goroutines claim from and the
// group the caller waits on. runFn is f.run bound once, so starting a helper
// goroutine allocates no closure.
type fan struct {
	next  atomic.Int64
	wg    sync.WaitGroup
	n     int
	do    func(int)
	runFn func()
}

var fans = sync.Pool{New: func() any {
	f := new(fan)
	f.runFn = f.run
	return f
}}

func (f *fan) run() {
	defer f.wg.Done()
	f.claim()
}

func (f *fan) claim() {
	for i := int(f.next.Add(1) - 1); i < f.n; i = int(f.next.Add(1) - 1) {
		f.do(i)
	}
}
