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
	"slices"
	"time"

	"dgs/internal/sparse"
	"dgs/internal/tensor"
)

// WorkerOptimizer turns local gradients into the update a worker transmits.
type WorkerOptimizer interface {
	// Prepare consumes per-layer gradients (owned by the caller; Prepare
	// must not retain them) and the current learning rate, updates internal
	// state, and returns the update to send. The returned update aliases
	// optimizer state and scratch: it is valid until the next Prepare call
	// and must not be mutated.
	Prepare(grads [][]float32, lr float32) sparse.Update
	// StateBytes reports worker-side optimizer memory (paper §5.6.2).
	StateBytes() int
}

// layerRule is what a sparsifying rule adds to the Top-k every rule shares
// (topkScratch.layer): the pass that folds a gradient into its state and the
// aftermath of sending a coordinate.
type layerRule interface {
	// accumulate folds layer i's gradient g (scaled by lr) into the rule's
	// state with tensor.AxpbyCount and returns the vector x the Top-k
	// selects from, how many of its coordinates have magnitude at or above
	// floor, and Σ|x|. Layers are never empty here.
	accumulate(i int, g []float32, lr float32, floor uint32) (x []float32, count int, sum float64)
	// sent applies the rule's aftermath to layer i's coordinates idx, just
	// selected for sending.
	sent(i int, idx []int32)
}

// topkScratch holds the per-layer Top-k machinery shared by the sparsifying
// rules: one Selector per layer, so each layer keeps its own warm-start
// floor, one persistent chunk slot per layer so steady-state assembly
// allocates nothing, and the assembled update returned to the caller.
type topkScratch struct {
	sel    []sparse.Selector
	chunks []sparse.Chunk
	out    sparse.Update
	om     *optimMetrics
	missed []bool // which layers the last prepare counted as misses
}

func newTopkScratch(n int, rule string) topkScratch {
	return topkScratch{
		sel:    make([]sparse.Selector, n),
		chunks: make([]sparse.Chunk, n),
		om:     newOptimMetrics(rule),
		missed: make([]bool, n),
	}
}

// prepare runs rule over every layer in order, sending the keep fraction of
// each and multiplying the unsent coordinates by scale, and assembles the
// chunks it emitted in layer order.
func (s *topkScratch) prepare(rule layerRule, grads [][]float32, lr float32, keep float64, scale float32) sparse.Update {
	p0 := time.Now()
	var mass float64
	misses := 0
	for i, g := range grads {
		mass += s.layer(rule, i, g, lr, keep, scale)
		if s.missed[i] {
			misses++
		}
	}
	topk := time.Since(p0)
	s.out.Chunks = s.out.Chunks[:0]
	for i := range s.chunks {
		if len(s.chunks[i].Idx) > 0 {
			s.out.Chunks = append(s.out.Chunks, s.chunks[i])
		}
	}
	s.om.observe(time.Since(p0), topk, mass, misses)
	return s.out
}

// layer selects the exact Top-k of layer i, warm-started from the boundary
// its Selector resolved last step (DESIGN.md §5), and returns the L1 mass
// left unsent. Pass 1 is the rule's accumulate, which counts the
// coordinates at or above the Selector's floor. When its WarmHit accepts
// that count (at least k, at most sparse.CandidateBound(k)), pass 2 is one
// Sweep that scales every coordinate below the floor and appends the rest
// to the chunk slot in index order; the exact boundary is resolved over
// those candidates alone, and an O(k) compaction keeps the selected ones and
// scales the others. On any other count (the first step always) the layer
// takes the histogram path: Cut over the whole layer, then one emit sweep.
// Both paths select the same set. Only a layer longer than the candidate
// bound counts that as a miss: on a shorter one the histogram path is O(k)
// work too.
func (s *topkScratch) layer(rule layerRule, i int, g []float32, lr float32, keep float64, scale float32) (mass float64) {
	if len(g) == 0 {
		return 0 // no chunk, no mass; rules may assume a non-empty layer
	}
	sel, c := &s.sel[i], &s.chunks[i]
	k := sparse.KForRatio(len(g), keep)
	floor, _ := sel.Floor()
	x, count, sum := rule.accumulate(i, g, lr, floor)
	hit := sel.WarmHit(count, k)
	var sentMass float64
	if hit {
		room := count + tensor.StreamLanes
		c.Idx, c.Val = tensor.Sweep(x, scale, floor, slices.Grow(c.Idx[:0], room), slices.Grow(c.Val[:0], room))
		cut := sel.CutCandidates(c.Idx, c.Val, k)
		n := 0
		for j, ord := range c.Idx {
			v := c.Val[j]
			if cut.Keeps(v, ord) {
				c.Idx[n], c.Val[n] = ord, v
				n++
				sentMass += absf(v)
			} else if scale != 1 {
				x[ord] = v * scale
			}
		}
		c.Idx, c.Val = c.Idx[:n], c.Val[:n]
	} else {
		cut := sel.Cut(x, k)
		c.Idx, c.Val = c.Idx[:0], c.Val[:0]
		for j, v := range x {
			if cut.Keeps(v, int32(j)) {
				c.Idx, c.Val = append(c.Idx, int32(j)), append(c.Val, v)
				sentMass += absf(v)
			} else if scale != 1 {
				x[j] = v * scale
			}
		}
	}
	c.Layer = i
	rule.sent(i, c.Idx)
	s.missed[i] = !hit && len(g) > sparse.CandidateBound(k)
	if len(c.Idx) == len(x) {
		return 0 // everything sent; the subtraction below would leave rounding
	}
	// Σ|unsent| = Σ|x| − Σ|sent|, clamped at 0 against rounding. A layer
	// holding ±Inf reads NaN (Inf − Inf) where a direct sum over only the
	// unsent coordinates could stay finite.
	return float64(scale) * max(0, sum-sentMass)
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
}

// NewGradientDropping creates the rule.
func NewGradientDropping(layerSizes []int, keepRatio float64) *GradientDropping {
	return &GradientDropping{KeepRatio: keepRatio, r: allocLike(layerSizes), ts: newTopkScratch(len(layerSizes), "gd")}
}

// Prepare accumulates and selects: r += η∇; send top-k(r); r[sent] = 0.
func (o *GradientDropping) Prepare(grads [][]float32, lr float32) sparse.Update {
	return o.ts.prepare(o, grads, lr, o.KeepRatio, 1)
}

func (o *GradientDropping) accumulate(i int, g []float32, lr float32, floor uint32) ([]float32, int, float64) {
	count, sum := tensor.AxpbyCount(o.r[i], g, 1, lr, floor)
	return o.r[i], count, sum
}

func (o *GradientDropping) sent(i int, idx []int32) {
	r := o.r[i]
	for _, j := range idx {
		r[j] = 0
	}
}

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
}

// NewDGC creates the rule.
func NewDGC(layerSizes []int, m float32, keepRatio float64) *DGC {
	return &DGC{M: m, KeepRatio: keepRatio, u: allocLike(layerSizes), v: allocLike(layerSizes),
		ts: newTopkScratch(len(layerSizes), "dgc")}
}

// Prepare applies momentum correction and factor masking.
func (o *DGC) Prepare(grads [][]float32, lr float32) sparse.Update {
	return o.ts.prepare(o, grads, lr, o.KeepRatio, 1)
}

func (o *DGC) accumulate(i int, g []float32, lr float32, floor uint32) ([]float32, int, float64) {
	tensor.AxpbyCount(o.u[i], g, o.M, lr, floor)
	count, sum := tensor.AxpbyCount(o.v[i], o.u[i], 1, 1, floor)
	return o.v[i], count, sum
}

// sent is momentum factor masking: stop stale momentum at sent coordinates.
func (o *DGC) sent(i int, idx []int32) {
	u, v := o.u[i], o.v[i]
	for _, j := range idx {
		u[j], v[j] = 0, 0
	}
}

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
//
// Under a lossy wire codec the rule also keeps an error memory e, the
// shortfall the codec withheld from sent coordinates (see FoldResidual):
// Top-k selects from u + e, a sent coordinate ships u + e and clears its e,
// and e is never rescaled, so each folded error reaches the server once.
type SAMomentum struct {
	M         float32
	KeepRatio float64
	u         [][]float32
	e         [][]float32 // nil until the first FoldResidual
	ts        topkScratch
}

// NewSAMomentum creates the rule. m must be in (0,1): the 1/m rescale is
// undefined at m=0.
func NewSAMomentum(layerSizes []int, m float32, keepRatio float64) *SAMomentum {
	if m <= 0 || m >= 1 {
		panic("optim: SAMomentum requires 0 < m < 1")
	}
	return &SAMomentum{M: m, KeepRatio: keepRatio, u: allocLike(layerSizes),
		ts: newTopkScratch(len(layerSizes), "samomentum")}
}

// Prepare implements Algorithm 3 lines 6–12: the unsent coordinates are
// magnified by 1/m.
func (o *SAMomentum) Prepare(grads [][]float32, lr float32) sparse.Update {
	return o.ts.prepare(o, grads, lr, o.KeepRatio, 1/o.M)
}

func (o *SAMomentum) accumulate(i int, g []float32, lr float32, floor uint32) ([]float32, int, float64) {
	count, sum := tensor.AxpbyCount(o.u[i], g, o.M, lr, floor)
	if o.e != nil {
		// Select from u + e: e rides in u through the selection, and sent
		// takes it out again.
		count, sum = tensor.AxpbyCount(o.u[i], o.e[i], 1, 1, floor)
	}
	return o.u[i], count, sum
}

// sent keeps the velocity of sent coordinates as it is. With an error
// memory it also takes e back out of u: a sent coordinate shipped u + e, so
// u keeps its velocity and e is paid; an unsent one was rescaled as u + e,
// so subtracting e/m leaves u rescaled and e as it was.
func (o *SAMomentum) sent(i int, idx []int32) {
	if o.e == nil {
		return
	}
	u, e := o.u[i], o.e[i]
	for _, j := range idx {
		u[j] -= e[j]
		e[j] = 0
	}
	s := 1 / o.M
	for j, ev := range e {
		if ev != 0 {
			u[j] -= float32(ev * s)
		}
	}
}

// StateBytes implements WorkerOptimizer.
func (o *SAMomentum) StateBytes() int { return totalBytes(o.u, o.e) }

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
// server; folding e back into what the Top-k selects from makes it re-enter
// a later update exactly once instead of being lost (error feedback, which
// converges for a contractive codec such as SBC). The dense baselines keep
// no residual state and deliberately do not implement this.
type ResidualFolder interface {
	// FoldResidual adds e into the optimizer's accumulation state. Called
	// between Prepare invocations, after the quantized update was shipped.
	FoldResidual(e *sparse.Update)
}

// FoldResidual implements ResidualFolder: the error rejoins the dropping
// residual r, exactly where an unsent coordinate would have kept it. r is
// never rescaled and is zeroed when sent, so it already delivers the error
// once and needs no separate memory.
func (o *GradientDropping) FoldResidual(e *sparse.Update) {
	for i := range e.Chunks {
		c := &e.Chunks[i]
		sparse.Scatter(c, o.r[c.Layer], 1)
	}
}

// FoldResidual implements ResidualFolder: the error rejoins the velocity
// accumulation v that Top-k selects from. u stays masked — the momentum
// factor masking already stopped stale momentum at the sent coordinates,
// and the error is a send shortfall, not fresh gradient. Like GD's r, v is
// never rescaled and is zeroed when sent, so the error goes out once.
func (o *DGC) FoldResidual(e *sparse.Update) {
	for i := range e.Chunks {
		c := &e.Chunks[i]
		sparse.Scatter(c, o.v[c.Layer], 1)
	}
}

// FoldResidual implements ResidualFolder: the error joins the error memory,
// allocated on the first fold. It cannot join the velocity u as the other
// rules' errors join their residuals: Algorithm 3 keeps u at sent
// coordinates and magnifies it at unsent ones, so the error would be sent
// again with momentum and the server would receive about e·m/(1−m) in
// place of e.
func (o *SAMomentum) FoldResidual(e *sparse.Update) {
	if o.e == nil {
		o.e = make([][]float32, len(o.u))
		for i, l := range o.u {
			o.e[i] = make([]float32, len(l))
		}
	}
	for i := range e.Chunks {
		c := &e.Chunks[i]
		sparse.Scatter(c, o.e[c.Layer], 1)
	}
}
