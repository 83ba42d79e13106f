package main

import (
	"fmt"
	"math"

	"dgs/internal/checkpoint"
	"dgs/internal/sparse"
	"dgs/internal/transport"
)

// maxDrainPushes bounds a drain: with secondary compression each empty push
// returns the top 5 % of what is still owed, so a drain takes tens of
// pushes, never thousands.
const maxDrainPushes = 4096

// drain sends empty pushes on a worker's session until the server answers
// with an empty difference, i.e. it owes this worker nothing more.
func drain(tr transport.Transport, id int) error {
	var down sparse.Update
	for i := 0; i < maxDrainPushes; i++ {
		resp, err := tr.Exchange(id, emptyFrame)
		if err != nil {
			return fmt.Errorf("drain worker %d: %w", id, err)
		}
		if err := sparse.DecodeAnyInto(&down, resp); err != nil {
			return fmt.Errorf("drain worker %d: %w", id, err)
		}
		if down.NNZ() == 0 {
			return nil
		}
	}
	return fmt.Errorf("drain worker %d: difference not empty after %d pushes", id, maxDrainPushes)
}

// capturer is the consistent-cut snapshot both ps.Server and
// ps.ShardedServer offer; it exposes M and every v_k of every shard.
type capturer interface {
	NewCaptureState() *checkpoint.State
	Capture(*checkpoint.State) (checkpoint.CaptureStats, error)
}

// checkFixpoint asserts the Eq. 5 fixpoint on a drained server: every
// worker's sent-accumulation v_k equals the model M bit for bit.
func checkFixpoint(ep *episode, what string, srv capturer) error {
	st := srv.NewCaptureState()
	if _, err := srv.Capture(st); err != nil {
		return fmt.Errorf("capture %s: %w", what, err)
	}
	ep.attempted++
	for si := range st.Shards {
		sh := &st.Shards[si]
		for k := range sh.Workers {
			for l := range sh.M {
				if i := firstDiff(sh.M[l], sh.Workers[k].V[l]); i >= 0 {
					ep.fail("%s: v_%d != M after drain (shard %d layer %d index %d: %v vs %v)",
						what, k, si, sh.Layers[l], i, sh.Workers[k].V[l][i], sh.M[l][i])
					return nil
				}
			}
		}
	}
	return nil
}

// firstDiff returns the first index at which a and b differ bitwise, or -1.
func firstDiff(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// sameModel counts one output check: two model copies must agree bitwise.
func sameModel(ep *episode, what string, a, b [][]float32) {
	ep.attempted++
	for l := range a {
		if i := firstDiff(a[l], b[l]); i >= 0 {
			ep.fail("%s differ at layer %d index %d: %v vs %v", what, l, i, a[l][i], b[l][i])
			return
		}
	}
}

func allocLayers(sizes []int) [][]float32 {
	out := make([][]float32, len(sizes))
	for i, n := range sizes {
		out[i] = make([]float32, n)
	}
	return out
}
