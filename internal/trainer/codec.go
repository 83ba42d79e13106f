package trainer

import (
	"fmt"
	"sync"

	"dgs/internal/optim"
	"dgs/internal/ps"
	"dgs/internal/sparse"
	"dgs/internal/transport"
)

// This file wires the sparse codec table (DESIGN.md §14) into the exchange
// path.
//
// Negotiation is stateless and per-frame: every frame's header names its
// codec, and the server answers each request in the codec it arrived in
// (the mirror policy) or in a forced policy codec. Both directions apply
// the *decoded* values and fold the projection error of lossy codecs into
// residual state — the worker into its optimizer accumulation
// (optim.ResidualFolder), the server into v_k (ps.DownFolder) — so the
// Eq. 5 drain invariant v_k == M survives quantization bitwise. Three rules
// keep lossy answers away from the exchanges that need exact values, under
// every policy:
//   - a raw request is answered raw: a raw worker trains on exact values
//     both ways, and a forced lossy codec does not change that;
//   - an empty push (a drain or sync probe) is answered raw, so a drain
//     converges on exact diffs instead of oscillating on quantized ones;
//   - a server without FoldDown support (a ps.Pusher that is not a
//     ps.DownFolder) is answered raw, because it cannot absorb the error.

// downQuantState is the server's per-worker downward quantization scratch.
// A worker's exchanges are serialised by the transport (the same contract
// Push's scratch relies on), so the state needs no lock of its own — only
// the map that holds it does.
type downQuantState struct {
	q, e sparse.Update
}

type codecHandler struct {
	folder ps.DownFolder // nil when the server cannot fold quantization error
	forced sparse.Codec  // nil under the mirror policy

	// reader reports whether a worker's current session declared the
	// read-session role (transport flagReader). A reader's empty pushes are
	// its steady-state diff subscription, not drain probes, so they are
	// answered in the requested codec instead of being forced raw; readers
	// obtain exact frames on demand by framing the poll raw. nil means the
	// role is unknown (sessionless wiring) and every empty push keeps the
	// drain rule.
	reader func(worker int) bool

	mu      sync.Mutex
	workers map[int]*downQuantState
}

func (h *codecHandler) state(worker int) *downQuantState {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.workers[worker]
	if st == nil {
		st = &downQuantState{}
		h.workers[worker] = st
	}
	return st
}

// respCodec picks the downward codec for one exchange. reqID is the codec
// of the incoming frame; drain marks an empty push.
func (h *codecHandler) respCodec(reqID byte, drain bool) sparse.Quantizer {
	if drain || reqID == sparse.CodecRaw || h.folder == nil {
		return nil // raw
	}
	codec := h.forced
	if codec == nil {
		// Mirror: the request's codec decoded successfully, so it is in
		// the codec table.
		codec, _ = sparse.CodecByID(reqID)
	}
	q, _ := codec.(sparse.Quantizer)
	return q // a lossless forced codec also lands on raw
}

// encodeDown appends the serialised downward difference to dst, quantizing
// and folding the projection error into v_k when the exchange negotiated a
// lossy codec. The appended frame lands in a fresh allocation (dst never
// has spare capacity): the exactly-once replay cache retains it, which is
// also what makes FoldDown exactly-once — a retried push is answered from
// the cache without re-running this path.
func (h *codecHandler) encodeDown(dst []byte, worker int, reqID byte, drain bool, G *sparse.Update) []byte {
	q := h.respCodec(reqID, drain)
	if q == nil {
		return sparse.AppendEncode(dst, G)
	}
	st := h.state(worker)
	q.Quantize(&st.q, G, &st.e)
	if st.e.NNZ() > 0 {
		h.folder.FoldDown(worker, &st.e)
	}
	return q.AppendEncode(dst, &st.q)
}

// HandlerWithCodec builds the server-side transport handler with a downward
// codec policy: "" or "mirror" answers each request in its own codec; a
// codec name forces that codec for every lossy request (raw requests and
// drains are still answered raw, see the rules above). With sbc the only
// lossy codec, "sbc" answers exactly as "mirror" does and "raw" pins the
// downward direction to exact values. Upward frames of every codec are
// accepted regardless of policy.
func HandlerWithCodec(server ps.Pusher, policy string) (transport.Handler, error) {
	h, err := newCodecHandler(server, policy)
	if err != nil {
		return nil, err
	}
	ah := h.appendHandler(server)
	return func(worker int, payload []byte) ([]byte, error) { return ah(nil, worker, payload) }, nil
}

func newCodecHandler(server ps.Pusher, policy string) (*codecHandler, error) {
	h := &codecHandler{workers: map[int]*downQuantState{}}
	h.folder, _ = server.(ps.DownFolder)
	switch policy {
	case "", "mirror":
	default:
		c, err := sparse.CodecByName(policy)
		if err != nil {
			return nil, err
		}
		if _, lossy := c.(sparse.Quantizer); lossy && h.folder == nil {
			return nil, fmt.Errorf("trainer: codec %q needs a server with downward error folding", policy)
		}
		// A forced raw codec is kept too: it pins the downward direction to
		// codec 0 even for lossy requests (respCodec sees a non-Quantizer
		// and answers raw), which is what "-codec raw" promises operators.
		h.forced = c
	}
	return h, nil
}

// appendHandler is the exchange itself — decode, Push, encode — appending
// the downward frame to dst, so the session middleware's reserved envelope
// prefix and the frame share the one allocation encodeDown makes.
func (h *codecHandler) appendHandler(server ps.Pusher) transport.AppendHandler {
	hm := newHandlerMetrics(server.LayerSizes())
	return func(dst []byte, worker int, payload []byte) ([]byte, error) {
		sc := scratchPool.Get().(*exchangeScratch)
		defer scratchPool.Put(sc)
		g := &sc.push
		g.Chunks = g.Chunks[:0]
		reqID := sparse.CodecRaw
		if len(payload) > 0 {
			if err := sparse.DecodeAnyInto(g, payload); err != nil {
				return nil, fmt.Errorf("trainer: decode push from worker %d: %w", worker, err)
			}
			// A frame that decodes may still not fit this model; Push panics
			// on one, so turn it into an error frame here.
			if err := g.Validate(server.LayerSizes()); err != nil {
				return nil, fmt.Errorf("trainer: push from worker %d: %w", worker, err)
			}
			reqID, _ = sparse.FrameCodecID(payload)
		}
		drain := g.NNZ() == 0
		if drain && h.reader != nil && h.reader(worker) {
			// Read-session poll: the empty push is the reader's subscription
			// heartbeat, not a drain probe — honour the requested codec so
			// replicas ride the compressed downward path. The FoldDown below
			// keeps v_k tracking what the replica actually applied, so the
			// reader's mirror stays bitwise equal to v_k even lossily.
			drain = false
		}
		sc.diff, _ = server.Push(worker, g)
		resp := h.encodeDown(dst, worker, reqID, drain, &sc.diff)
		sc.diff = sparse.Update{} // the server's scratch, not ours to keep
		hm.observe(len(payload), len(resp)-len(dst))
		return resp, nil
	}
}

// ExactlyOnceHandlerWithCodec wraps HandlerWithCodec in the session
// middleware (see ExactlyOnceHandler). The session layer also supplies the
// read-session role lookup, so reader polls keep their negotiated codec.
func ExactlyOnceHandlerWithCodec(server ps.Pusher, policy string) (*transport.ExactlyOnce, error) {
	h, err := newCodecHandler(server, policy)
	if err != nil {
		return nil, err
	}
	eo := transport.NewExactlyOnce(h.appendHandler(server), func(worker int) error {
		server.Resync(worker)
		return nil
	})
	h.reader = eo.ReaderSession
	return eo, nil
}

// upCodec bundles the worker-side codec state: the resolved quantizer (nil
// for raw), the optimizer residual hook, and the quantize scratch.
type upCodec struct {
	quant  sparse.Quantizer
	folder optim.ResidualFolder
	q, e   sparse.Update
}

// newUpCodec resolves a validated codec name against the optimizer. Lossy
// codecs without a residual-folding optimizer (the dense baselines) still
// work — the error is simply dropped — but sparsifying optimizers all fold.
func newUpCodec(name string, opt optim.WorkerOptimizer) *upCodec {
	c, err := sparse.CodecByName(name)
	if err != nil {
		// Config.normalise validated the name; reaching here is a wiring bug.
		panic(err)
	}
	u := &upCodec{}
	u.quant, _ = c.(sparse.Quantizer)
	u.folder, _ = opt.(optim.ResidualFolder)
	return u
}

// encode serialises upd for the wire. Under a lossy codec the update is
// quantized first and the projection error folded back into the optimizer's
// accumulation, so it re-enters a later Top-k instead of being lost; the
// encoded frame then carries exactly the values the server will decode.
func (u *upCodec) encode(dst []byte, upd *sparse.Update) []byte {
	if u.quant == nil {
		return sparse.AppendEncode(dst, upd)
	}
	u.quant.Quantize(&u.q, upd, &u.e)
	if u.folder != nil && u.e.NNZ() > 0 {
		u.folder.FoldResidual(&u.e)
	}
	return u.quant.AppendEncode(dst, &u.q)
}
