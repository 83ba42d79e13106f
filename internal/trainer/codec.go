package trainer

import (
	"fmt"
	"sync"

	"dgs/internal/optim"
	"dgs/internal/ps"
	"dgs/internal/sparse"
	"dgs/internal/transport"
)

// This file wires the sparse codec table (DESIGN.md §6) into the exchange
// path.
//
// Negotiation is stateless and per-frame: every frame's header names its
// codec, and the server answers each request in the codec it arrived in.
// Both directions apply the *decoded* values and fold the projection error
// of lossy codecs into residual state — the worker into its optimizer
// accumulation (optim.ResidualFolder), the server into v_k (ps.DownFolder) —
// so the Eq. 5 drain invariant v_k == M survives quantization bitwise. Three
// rules keep lossy answers away from the exchanges that need exact values:
//   - a raw request is answered raw: a raw worker trains on exact values
//     both ways;
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
	server  ps.Pusher
	metrics *handlerMetrics
	folder  ps.DownFolder // nil when the server cannot fold quantization error

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
	// The request's codec decoded successfully, so it is in the codec table.
	codec, _ := sparse.CodecByID(reqID)
	q, _ := codec.(sparse.Quantizer)
	return q
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

// newCodecHandler builds server's exchange handler.
func newCodecHandler(server ps.Pusher) *codecHandler {
	h := &codecHandler{
		server:  server,
		metrics: newHandlerMetrics(server.LayerSizes()),
		workers: map[int]*downQuantState{},
	}
	h.folder, _ = server.(ps.DownFolder)
	return h
}

// handle is the exchange itself — decode, Push, encode — appending the
// downward frame to dst, so the session middleware's reserved envelope
// prefix and the frame share the one allocation encodeDown makes.
func (h *codecHandler) handle(dst []byte, worker int, payload []byte) ([]byte, error) {
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
		if err := g.Validate(h.server.LayerSizes()); err != nil {
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
	sc.diff, _ = h.server.Push(worker, g)
	resp := h.encodeDown(dst, worker, reqID, drain, &sc.diff)
	sc.diff = sparse.Update{} // the server's scratch, not ours to keep
	h.metrics.observe(len(payload), len(resp)-len(dst))
	return resp, nil
}

// sessions puts the handler behind the exactly-once session middleware:
// retried pushes are answered from the per-worker replay cache instead of
// being re-applied, and a rejoining worker incarnation triggers a server
// Resync so its first response ships a dense snapshot. The session layer
// also supplies the read-session role, so reader polls keep their
// negotiated codec.
func (h *codecHandler) sessions() *transport.ExactlyOnce {
	eo := transport.NewExactlyOnce(h.handle, func(worker int) error {
		h.server.Resync(worker)
		return nil
	})
	h.reader = eo.ReaderSession
	return eo
}

// ExactlyOnceHandlerWithCodec is the session half of Serve — the codec
// handler inside exactly-once sessions — for a caller that layers the rest
// itself. policy must be "" or "mirror", the one downward policy: each
// request is answered in its own codec.
func ExactlyOnceHandlerWithCodec(server ps.Pusher, policy string) (*transport.ExactlyOnce, error) {
	if policy != "" && policy != "mirror" {
		return nil, fmt.Errorf("trainer: downward codec policy %q: only \"mirror\" exists", policy)
	}
	return newCodecHandler(server).sessions(), nil
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
