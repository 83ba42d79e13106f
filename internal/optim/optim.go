// Package optim implements the worker-side update rules the paper compares:
//
//   - DenseSGD: vanilla ASGD (no sparsification, no momentum) — sends η∇.
//   - DenseMomentum: vanilla momentum for the single-node MSGD baseline.
//   - GradientDropping: Aji & Heafield Top-k with local residual
//     accumulation (paper Algorithm 1 without SAMomentum).
//   - DGC: Lin et al. momentum correction + momentum factor masking
//     (the paper's strongest prior-work baseline, run as DGC-async).
//   - SAMomentum: the paper's sparsification-aware momentum
//     (Algorithm 3, Eqs. 14–16).
//
// Every optimizer follows the same contract: Prepare consumes this step's
// per-layer mean gradients and learning rate and returns the sparse update
// to transmit. Returned updates hold "descent deltas" d — the server
// subtracts them from its update accumulation M, and model application is
// θ ← θ − d.
package optim

import (
	"time"

	"dgs/internal/par"
	"dgs/internal/sparse"
)

// WorkerOptimizer turns local gradients into the update a worker transmits.
type WorkerOptimizer interface {
	// Prepare consumes per-layer gradients (owned by the caller; Prepare
	// must not retain them) and the current learning rate, updates internal
	// state, and returns the update to send. The returned update aliases
	// optimizer state and scratch: it is valid until the next Prepare call
	// and must not be mutated.
	Prepare(grads [][]float32, lr float32) sparse.Update
	// Name identifies the rule in logs and tables.
	Name() string
	// StateBytes reports worker-side optimizer memory (paper §5.6.2).
	StateBytes() int
}

// parallelPrepThreshold is the total element count below which Prepare's
// per-layer fan-out is not worth goroutine overhead.
const parallelPrepThreshold = 1 << 16

// layerRule is a sparsifying rule's per-layer Prepare body. Every rule makes
// the same three passes over a layer's accumulation x, with the selection
// kernel (sparse.Selector) fused into the two the rule needs anyway: the
// accumulate pass folds g into x and feeds each new value to sel's
// histogram, sel.Cut resolves the exact Top-k boundary, and one in-order
// sweep moves the selected coordinates into c — already index-sorted —
// while applying the rule's per-coordinate aftermath (zero the sent
// residual, or magnify the unsent velocity by 1/m). It returns the L1 mass
// left unsent. Layers are never empty here.
type layerRule interface {
	prepareLayer(i int, g []float32, lr float32, sel *sparse.Selector, c *sparse.Chunk) (mass float64)
}

// topkScratch holds the per-layer Top-k machinery shared by the sparsifying
// rules: one Selector per layer so selection can fan out across cores, one
// persistent chunk slot per layer so steady-state assembly allocates
// nothing, and the assembled update returned to the caller.
type topkScratch struct {
	sel    []sparse.Selector
	chunks []sparse.Chunk
	out    sparse.Update

	// The step in flight, held only while prepare runs: the per-layer body
	// is a method on the scratch because a closure over these would escape
	// through the fan-out's goroutines and allocate on every step.
	rule    layerRule
	grads   [][]float32
	lr      float32
	layerFn func(int) // s.layer, the fan-out's body

	// Per-layer telemetry accumulators. Each fan-out goroutine writes only
	// its own layer's slot, so recording is contention- and race-free; the
	// totals are summed serially after the fan-out joins.
	topkNs []int64   // nanoseconds in the three fused passes
	mass   []float64 // L1 mass of the unsent residual/velocity
}

func newTopkScratch(n int) topkScratch {
	return topkScratch{
		sel:    make([]sparse.Selector, n),
		chunks: make([]sparse.Chunk, n),
		topkNs: make([]int64, n),
		mass:   make([]float64, n),
	}
}

// prepare runs rule over every layer and assembles the chunks it emitted in
// layer order, so the result is deterministic regardless of how the fan-out
// interleaved.
func (s *topkScratch) prepare(rule layerRule, grads [][]float32, lr float32, om *optimMetrics) sparse.Update {
	p0 := time.Now()
	s.rule, s.grads, s.lr = rule, grads, lr
	s.forEachLayer()
	s.rule, s.grads = nil, nil
	s.out.Chunks = s.out.Chunks[:0]
	for i := range s.chunks {
		if len(s.chunks[i].Idx) > 0 {
			s.out.Chunks = append(s.out.Chunks, s.chunks[i])
		}
	}
	om.observe(s, time.Since(p0))
	return s.out
}

// forEachLayer runs s.layer for every layer. When the model is large enough
// the layers fan out across cores (par.Each); each layer touches only its own
// state, so results are identical to the serial order.
func (s *topkScratch) forEachLayer() {
	total := 0
	for _, g := range s.grads {
		total += len(g)
	}
	if total < parallelPrepThreshold {
		for i := range s.grads {
			s.layer(i)
		}
		return
	}
	if s.layerFn == nil {
		s.layerFn = s.layer // bound once: a method value per step would allocate
	}
	par.Each(len(s.grads), s.layerFn)
}

func (s *topkScratch) layer(i int) {
	if len(s.grads[i]) == 0 {
		return // no chunk, no mass; rules may assume a non-empty layer
	}
	t0 := time.Now()
	c := &s.chunks[i]
	c.Layer, c.Idx, c.Val = i, c.Idx[:0], c.Val[:0]
	s.mass[i] = s.rule.prepareLayer(i, s.grads[i], s.lr, &s.sel[i], c)
	s.topkNs[i] = time.Since(t0).Nanoseconds()
}

// denseScratch caches the identity index slices and chunk headers the dense
// rules would otherwise rebuild every step. Values alias the caller's
// buffers; only indices are materialised (once per layer shape).
type denseScratch struct {
	idx [][]int32
	out sparse.Update
}

func (d *denseScratch) update(vals [][]float32) sparse.Update {
	if len(d.idx) < len(vals) {
		d.idx = append(d.idx, make([][]int32, len(vals)-len(d.idx))...)
	}
	d.out.Chunks = d.out.Chunks[:0]
	for layer, v := range vals {
		if len(v) == 0 {
			continue
		}
		if len(d.idx[layer]) != len(v) {
			idx := make([]int32, len(v))
			for i := range idx {
				idx[i] = int32(i)
			}
			d.idx[layer] = idx
		}
		d.out.Chunks = append(d.out.Chunks, sparse.Chunk{Layer: layer, Idx: d.idx[layer], Val: v})
	}
	return d.out
}

func allocLike(sizes []int) [][]float32 {
	out := make([][]float32, len(sizes))
	for i, n := range sizes {
		out[i] = make([]float32, n)
	}
	return out
}

func totalBytes(buffers ...[][]float32) int {
	n := 0
	for _, buf := range buffers {
		for _, l := range buf {
			n += 4 * len(l)
		}
	}
	return n
}

// DenseSGD sends η∇ densely every step: the ASGD baseline.
type DenseSGD struct {
	scaled [][]float32
	ds     denseScratch
}

// NewDenseSGD returns the ASGD update rule.
func NewDenseSGD() *DenseSGD { return &DenseSGD{} }

// Prepare returns the dense scaled gradient.
func (o *DenseSGD) Prepare(grads [][]float32, lr float32) sparse.Update {
	if len(o.scaled) < len(grads) {
		o.scaled = append(o.scaled, make([][]float32, len(grads)-len(o.scaled))...)
	}
	for i, g := range grads {
		if cap(o.scaled[i]) < len(g) {
			o.scaled[i] = make([]float32, len(g))
		}
		s := o.scaled[i][:len(g)]
		for j, v := range g {
			s[j] = lr * v
		}
		o.scaled[i] = s
	}
	return o.ds.update(o.scaled[:len(grads)])
}

// Name implements WorkerOptimizer.
func (o *DenseSGD) Name() string { return "ASGD" }

// StateBytes implements WorkerOptimizer; DenseSGD is stateless.
func (o *DenseSGD) StateBytes() int { return 0 }

// DenseMomentum sends the full velocity u = m·u + η∇ every step. With a
// single worker this reproduces the MSGD baseline (paper Eq. 7).
type DenseMomentum struct {
	M  float32
	u  [][]float32
	ds denseScratch
}

// NewDenseMomentum creates the rule for a model with the given layer sizes.
func NewDenseMomentum(layerSizes []int, m float32) *DenseMomentum {
	return &DenseMomentum{M: m, u: allocLike(layerSizes)}
}

// Prepare computes u = m·u + η∇ and sends u densely (the returned values
// alias the velocity buffer directly).
func (o *DenseMomentum) Prepare(grads [][]float32, lr float32) sparse.Update {
	for i, g := range grads {
		u := o.u[i]
		for j, v := range g {
			u[j] = o.M*u[j] + lr*v
		}
	}
	return o.ds.update(o.u)
}

// Name implements WorkerOptimizer.
func (o *DenseMomentum) Name() string { return "MSGD" }

// StateBytes implements WorkerOptimizer.
func (o *DenseMomentum) StateBytes() int { return totalBytes(o.u) }

// GradientDropping implements Aji & Heafield: accumulate η∇ into a residual
// r, transmit the per-layer Top-k of r, and keep the rest for later
// (paper Algorithm 1, "DGS without SAMomentum" upward path).
type GradientDropping struct {
	// KeepRatio is the fraction of each layer transmitted (paper R%).
	KeepRatio float64
	r         [][]float32
	ts        topkScratch
	om        *optimMetrics
}

// NewGradientDropping creates the rule.
func NewGradientDropping(layerSizes []int, keepRatio float64) *GradientDropping {
	return &GradientDropping{KeepRatio: keepRatio, r: allocLike(layerSizes),
		ts: newTopkScratch(len(layerSizes)), om: newOptimMetrics("gd")}
}

// Prepare accumulates and selects: r += η∇; send top-k(r); r[sent] = 0.
// Layers are processed in parallel on multi-core hosts.
func (o *GradientDropping) Prepare(grads [][]float32, lr float32) sparse.Update {
	return o.ts.prepare(o, grads, lr, o.om)
}

func (o *GradientDropping) prepareLayer(i int, g []float32, lr float32, sel *sparse.Selector, c *sparse.Chunk) (mass float64) {
	r := o.r[i]
	h := sel.Begin(len(r))
	for j, v := range g {
		r[j] += lr * v
		mass += absf(r[j])
		h.Add(r[j])
	}
	cut := sel.Cut(r, sparse.KForRatio(len(r), o.KeepRatio))
	for j, v := range r {
		if cut.Keeps(v, int32(j)) {
			c.Idx, c.Val = append(c.Idx, int32(j)), append(c.Val, v)
			r[j] = 0
			mass -= absf(v)
		}
	}
	return mass
}

// Name implements WorkerOptimizer.
func (o *GradientDropping) Name() string { return "GD-async" }

// StateBytes implements WorkerOptimizer.
func (o *GradientDropping) StateBytes() int { return totalBytes(o.r) }

// DGC implements Deep Gradient Compression's local update rule:
// momentum correction (velocity is accumulated, not raw gradients) and
// momentum factor masking (sent coordinates have their momentum cleared).
//
//	u = m·u + η∇
//	v = v + u
//	send top-k(v); v[sent] = 0; u[sent] = 0
type DGC struct {
	M         float32
	KeepRatio float64
	u, v      [][]float32
	ts        topkScratch
	om        *optimMetrics
}

// NewDGC creates the rule.
func NewDGC(layerSizes []int, m float32, keepRatio float64) *DGC {
	return &DGC{M: m, KeepRatio: keepRatio, u: allocLike(layerSizes), v: allocLike(layerSizes),
		ts: newTopkScratch(len(layerSizes)), om: newOptimMetrics("dgc")}
}

// Prepare applies momentum correction and factor masking. Layers are
// processed in parallel on multi-core hosts.
func (o *DGC) Prepare(grads [][]float32, lr float32) sparse.Update {
	return o.ts.prepare(o, grads, lr, o.om)
}

func (o *DGC) prepareLayer(i int, g []float32, lr float32, sel *sparse.Selector, c *sparse.Chunk) (mass float64) {
	u, v := o.u[i], o.v[i]
	h := sel.Begin(len(v))
	for j, gv := range g {
		u[j] = o.M*u[j] + lr*gv
		v[j] += u[j]
		mass += absf(v[j])
		h.Add(v[j])
	}
	cut := sel.Cut(v, sparse.KForRatio(len(v), o.KeepRatio))
	for j, vv := range v {
		if cut.Keeps(vv, int32(j)) {
			c.Idx, c.Val = append(c.Idx, int32(j)), append(c.Val, vv)
			// Momentum factor masking: stop stale momentum at sent coords.
			v[j], u[j] = 0, 0
			mass -= absf(vv)
		}
	}
	return mass
}

// Name implements WorkerOptimizer.
func (o *DGC) Name() string { return "DGC-async" }

// StateBytes implements WorkerOptimizer.
func (o *DGC) StateBytes() int { return totalBytes(o.u, o.v) }

// SAMomentum is the paper's sparsification-aware momentum (Algorithm 3):
//
//	u = m·u + η∇
//	per layer: thr = R% of |u|; mask = |u| > thr
//	send g = u ⊙ mask
//	u = u + (1/m − 1)·(u ⊙ ¬mask)      // unsent coordinates ×(1/m)
//
// Sent coordinates keep their velocity (classic momentum retention);
// unsent coordinates are magnified by 1/m so that a coordinate silent for
// T steps telescopes to u_{c+T} = m·u_c + η·Σ∇ (paper Eq. 16) — exactly
// per-parameter enlarged-batch MSGD, so momentum never disappears.
type SAMomentum struct {
	M         float32
	KeepRatio float64
	u         [][]float32
	ts        topkScratch
	om        *optimMetrics
}

// NewSAMomentum creates the rule. m must be in (0,1): the 1/m rescale is
// undefined at m=0.
func NewSAMomentum(layerSizes []int, m float32, keepRatio float64) *SAMomentum {
	if m <= 0 || m >= 1 {
		panic("optim: SAMomentum requires 0 < m < 1")
	}
	return &SAMomentum{M: m, KeepRatio: keepRatio, u: allocLike(layerSizes),
		ts: newTopkScratch(len(layerSizes)), om: newOptimMetrics("samomentum")}
}

// Prepare implements Algorithm 3 lines 6–12. Layers are processed in
// parallel on multi-core hosts.
func (o *SAMomentum) Prepare(grads [][]float32, lr float32) sparse.Update {
	return o.ts.prepare(o, grads, lr, o.om)
}

func (o *SAMomentum) prepareLayer(i int, g []float32, lr float32, sel *sparse.Selector, c *sparse.Chunk) (mass float64) {
	u, invM := o.u[i], 1/o.M
	h := sel.Begin(len(u))
	for j, gv := range g {
		u[j] = o.M*u[j] + lr*gv
		h.Add(u[j])
	}
	cut := sel.Cut(u, sparse.KForRatio(len(u), o.KeepRatio))
	for j, v := range u {
		if cut.Keeps(v, int32(j)) {
			// Sent: velocity retained as-is.
			c.Idx, c.Val = append(c.Idx, int32(j)), append(c.Val, v)
			continue
		}
		// Unsent: magnified by 1/m.
		u[j] = v * invM
		mass += absf(u[j])
	}
	return mass
}

// Name implements WorkerOptimizer.
func (o *SAMomentum) Name() string { return "DGS" }

// StateBytes implements WorkerOptimizer.
func (o *SAMomentum) StateBytes() int { return totalBytes(o.u) }

// Velocity exposes the internal buffer for invariant tests.
func (o *SAMomentum) Velocity() [][]float32 { return o.u }

// RatioSetter is implemented by the sparsifying optimizers so callers can
// anneal the keep ratio during training (warm-up schedules).
type RatioSetter interface {
	// SetKeepRatio changes the per-layer keep fraction for subsequent
	// Prepare calls.
	SetKeepRatio(r float64)
}

// SetKeepRatio implements RatioSetter.
func (o *GradientDropping) SetKeepRatio(r float64) { o.KeepRatio = r }

// SetKeepRatio implements RatioSetter.
func (o *DGC) SetKeepRatio(r float64) { o.KeepRatio = r }

// SetKeepRatio implements RatioSetter.
func (o *SAMomentum) SetKeepRatio(r float64) { o.KeepRatio = r }

// ResidualFolder is implemented by optimizers whose local accumulation can
// absorb upward quantization error. When a lossy wire codec projects the
// prepared update g onto q, the shortfall e = g − q never reaches the
// server; folding e back into the accumulation the Top-k selects from puts
// it on the same path as sparsification residual, so it re-enters a later
// update instead of being lost (Double Quantization's error feedback). The
// dense baselines keep no residual state and deliberately do not implement
// this — quantizing them is the biased TernGrad setting.
type ResidualFolder interface {
	// FoldResidual adds e into the optimizer's accumulation state. Called
	// between Prepare invocations, after the quantized update was shipped.
	FoldResidual(e *sparse.Update)
}

// FoldResidual implements ResidualFolder: the error rejoins the dropping
// residual r, exactly where an unsent coordinate would have kept it.
func (o *GradientDropping) FoldResidual(e *sparse.Update) {
	for i := range e.Chunks {
		c := &e.Chunks[i]
		sparse.Scatter(c, o.r[c.Layer], 1)
	}
}

// FoldResidual implements ResidualFolder: the error rejoins the velocity
// accumulation v that Top-k selects from. u stays masked — the momentum
// factor masking already stopped stale momentum at the sent coordinates,
// and the error is a send shortfall, not fresh gradient.
func (o *DGC) FoldResidual(e *sparse.Update) {
	for i := range e.Chunks {
		c := &e.Chunks[i]
		sparse.Scatter(c, o.v[c.Layer], 1)
	}
}

// FoldResidual implements ResidualFolder: the error rejoins the velocity u.
// Sent coordinates retain their velocity under Algorithm 3, so adding the
// unshipped remainder there keeps the telescoped per-coordinate sum (paper
// Eq. 16) accounting for everything the server has not yet received.
func (o *SAMomentum) FoldResidual(e *sparse.Update) {
	for i := range e.Chunks {
		c := &e.Chunks[i]
		sparse.Scatter(c, o.u[c.Layer], 1)
	}
}
