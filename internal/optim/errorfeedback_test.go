package optim

import (
	"fmt"
	"math"
	"testing"

	"dgs/internal/ps"
	"dgs/internal/sparse"
	"dgs/internal/tensor"
)

// Error feedback under the one lossy codec, SBC: what the wire withholds
// must reach the server later, and exactly once.

func sbcQuantizer(t *testing.T) sparse.Quantizer {
	t.Helper()
	c, err := sparse.CodecByName("sbc")
	if err != nil {
		t.Fatal(err)
	}
	return c.(sparse.Quantizer)
}

// lossyExchange is one worker exchange under a lossy codec, as the trainer
// runs it (trainer/codec.go): quantize the prepared update and fold its
// error into the optimizer, decode the frame as the server does and push
// it, then quantize the downward difference, fold that error into v_k
// (ps.FoldDown) and decode the frame the worker applies.
type lossyExchange struct {
	q                      sparse.Quantizer
	qUp, eUp, qDown, eDown sparse.Update
	up, down               sparse.Update // the decoded frames
	frame                  []byte
}

func (x *lossyExchange) run(t *testing.T, opt WorkerOptimizer, srv *ps.Server, upd *sparse.Update) {
	t.Helper()
	x.q.Quantize(&x.qUp, upd, &x.eUp)
	opt.(ResidualFolder).FoldResidual(&x.eUp)
	x.frame = x.q.AppendEncode(x.frame[:0], &x.qUp)
	if err := sparse.DecodeAnyInto(&x.up, x.frame); err != nil {
		t.Fatal(err)
	}
	G, _ := srv.Push(0, &x.up)
	x.q.Quantize(&x.qDown, &G, &x.eDown)
	srv.FoldDown(0, &x.eDown)
	x.frame = x.q.AppendEncode(x.frame[:0], &x.qDown)
	if err := sparse.DecodeAnyInto(&x.down, x.frame); err != nil {
		t.Fatal(err)
	}
}

// ledger is per-coordinate float64 bookkeeping over a model's layers.
type ledger [][]float64

func newLedger(sizes []int) ledger {
	l := make(ledger, len(sizes))
	for i, n := range sizes {
		l[i] = make([]float64, n)
	}
	return l
}

func (l ledger) add(u *sparse.Update) {
	for _, c := range u.Chunks {
		for j, idx := range c.Idx {
			l[c.Layer][idx] += float64(c.Val[j])
		}
	}
}

// TestErrorFeedbackConservesMass checks, per coordinate after every
// exchange of a run under SBC in both directions, that
//
//	delivered + retained == accumulated
//
// upward, for each sparsifying rule, and the same downward. Upward,
// delivered is the sum of the decoded frames the server applied and
// retained is the optimizer state plus its error memory:
//
//   - GD-async: retained r, accumulated Σ η∇.
//   - DGC-async: retained v, accumulated Σ u, the velocities folded into v
//     (momentum factor masking drops u at sent coordinates by design).
//   - DGS: SAMomentum delivers each gradient 1/(1−m) times over through
//     momentum (Eq. 16), so accumulated is Σ η∇/(1−m), and retained is the
//     error memory e plus the m·u/(1−m) the velocity u still owes.
//
// Downward, delivered is the sum of the decoded frames the worker applied
// and retained is the server's M − v_k, so the check reads delivered == v_k
// (the folded error stays in M − v_k), beside M == −Σ decoded upward.
// Float32 state rounds on every step, so each side may differ by 1e-5 of
// the coordinate's gross mass: the sum of the magnitudes of everything
// that entered it. SBC's errors are of the order of the values themselves,
// so a double-counted or lost error is far outside that.
func TestErrorFeedbackConservesMass(t *testing.T) {
	sizes := []int{700, 33, 2048}
	const m, keep, lr, steps = 0.7, 0.1, 0.1, 60
	for _, build := range []func() WorkerOptimizer{
		func() WorkerOptimizer { return NewGradientDropping(sizes, keep) },
		func() WorkerOptimizer { return NewDGC(sizes, m, keep) },
		func() WorkerOptimizer { return NewSAMomentum(sizes, m, keep) },
	} {
		opt := build()
		t.Run(methodName(opt), func(t *testing.T) {
			srv := ps.NewServer(ps.Config{LayerSizes: sizes, Workers: 1, Quiet: true})
			x := &lossyExchange{q: sbcQuantizer(t)}
			rng := tensor.NewRNG(31)
			grads := allocLike(sizes)
			acc, gross, up, down := newLedger(sizes), newLedger(sizes), newLedger(sizes), newLedger(sizes)
			M, V := allocLike(sizes), allocLike(sizes)
			for step := 0; step < steps; step++ {
				for _, g := range grads {
					rng.FillNormal(g, 0, 1)
				}
				// What this step adds to the accumulation, read before
				// Prepare changes the state.
				for i, g := range grads {
					for j, gv := range g {
						var a float64
						switch o := opt.(type) {
						case *GradientDropping:
							a = float64(float32(lr * gv))
						case *DGC:
							a = float64(float32(m*o.u[i][j]) + float32(lr*gv))
						case *SAMomentum:
							a = float64(float32(lr*gv)) / (1 - m)
						}
						acc[i][j] += a
						gross[i][j] += math.Abs(a)
					}
				}
				upd := opt.Prepare(grads, lr)
				x.run(t, opt, srv, &upd)
				up.add(&x.up)
				down.add(&x.down)

				srv.MSnapshot(M)
				srv.VSnapshot(0, V)
				for i := range sizes {
					for j := range sizes[i] {
						var retained float64
						switch o := opt.(type) {
						case *GradientDropping:
							retained = float64(o.r[i][j])
						case *DGC:
							retained = float64(o.v[i][j])
						case *SAMomentum:
							retained = m * float64(o.u[i][j]) / (1 - m)
							if o.e != nil {
								retained += float64(o.e[i][j])
							}
						}
						tol := 1e-5 * (gross[i][j] + math.Abs(up[i][j]) + math.Abs(retained))
						at := fmt.Sprintf("step %d layer %d coordinate %d", step, i, j)
						if d := up[i][j] + retained - acc[i][j]; math.Abs(d) > tol {
							t.Fatalf("%s: upward delivered %v + retained %v − accumulated %v = %v, beyond %v",
								at, up[i][j], retained, acc[i][j], d, tol)
						}
						if d := down[i][j] - float64(V[i][j]); math.Abs(d) > tol {
							t.Fatalf("%s: downward delivered %v, v_k %v: differ by %v, beyond %v", at, down[i][j], V[i][j], d, tol)
						}
						if d := float64(M[i][j]) + up[i][j]; math.Abs(d) > tol {
							t.Fatalf("%s: M %v, upward delivered %v: M + delivered = %v, beyond %v", at, M[i][j], up[i][j], d, tol)
						}
					}
				}
			}
		})
	}
}

// TestSAMomentumFoldedErrorArrivesOnce folds a single error e into a
// SAMomentum with zero velocity and then prepares on zero gradients: the
// server must receive e once and nothing more. An error folded into the
// velocity instead is carried as momentum: it decays by m before its first
// send and is re-sent at every step after, which delivers e·m/(1−m) in
// place of e (7/3 of e at m = 0.7).
func TestSAMomentumFoldedErrorArrivesOnce(t *testing.T) {
	const m = 0.7
	for _, keep := range []float64{1, 0.25} {
		sizes := []int{4}
		o := NewSAMomentum(sizes, m, keep)
		grads := allocLike(sizes)
		const e = 0.5
		o.FoldResidual(&sparse.Update{Chunks: []sparse.Chunk{{Layer: 0, Idx: []int32{2}, Val: []float32{e}}}})
		delivered := newLedger(sizes)
		for step := 0; step < 200; step++ {
			upd := o.Prepare(grads, 0.1)
			delivered.add(&upd)
		}
		if got := delivered[0][2]; got != e {
			t.Errorf("keep %v: a folded error of %v delivered %v in total", keep, e, got)
		}
		for j, got := range delivered[0] {
			if j != 2 && got != 0 {
				t.Errorf("keep %v: coordinate %d with no gradient and no error delivered %v", keep, j, got)
			}
		}
	}
}
