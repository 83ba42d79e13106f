package replica

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// HTTP model-read endpoint. The wire format is deliberately dumb — a
// self-describing little-endian dump — so evaluators in any language can
// consume a replica without linking the DGS codecs:
//
//	u32  magic "DGSM"
//	u32  version (1)
//	u64  stamp       mirror logical clock at the cut
//	u64  generation  read generation (bumps on upstream resync)
//	u32  layers      number of layers in this response
//	u32× layer sizes (elements)
//	f32× layer data, layers concatenated in order
//
// GET /model returns the whole model; GET /model?layer=K one layer (the
// header then says layers=1 and carries only that layer's size). /replicaz
// reports the subscription state as JSON; /healthz returns 200 while the
// subscription loop is live and 503 once it parked on a fatal error.
const modelMagic = 0x4D534744 // "DGSM" little endian

// modelWireVersion is bumped on any incompatible change to the dump layout.
const modelWireVersion = 1

// modelHeaderLen is the fixed prefix before the per-layer size table.
const modelHeaderLen = 4 + 4 + 8 + 8 + 4

// Handler returns the replica's HTTP mux. Every /model request is one
// snapshot cut through a shared incremental cursor, so consecutive requests
// copy only the blocks that changed between them.
func (r *Replica) Handler() http.Handler {
	h := &httpServer{r: r, rs: r.NewReaderState()}
	mux := http.NewServeMux()
	mux.HandleFunc("/model", h.model)
	mux.HandleFunc("/replicaz", h.stats)
	mux.HandleFunc("/healthz", h.healthz)
	return mux
}

type httpServer struct {
	r *Replica

	// mu serialises /model requests over the shared incremental cursor. A
	// cut holds the mirror's model read lock only while it reads the block
	// stamps and copies the blocks changed since the previous request, so
	// the subscription loop's next apply waits at most that long; encoding
	// the dump holds no mirror lock.
	mu sync.Mutex
	rs *ReaderState
}

func (h *httpServer) model(w http.ResponseWriter, req *http.Request) {
	layer := -1
	if q := req.URL.Query().Get("layer"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 || n >= len(h.r.cfg.LayerSizes) {
			http.Error(w, fmt.Sprintf("layer %q out of range [0,%d)", q, len(h.r.cfg.LayerSizes)),
				http.StatusBadRequest)
			return
		}
		layer = n
	}
	h.mu.Lock()
	model, stamp, gen := h.r.Snapshot(h.rs)
	buf := appendModelDump(nil, model, stamp, gen, layer)
	h.mu.Unlock()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	w.Write(buf)
}

func appendModelDump(dst []byte, model [][]float32, stamp, gen uint64, layer int) []byte {
	layers := model
	if layer >= 0 {
		layers = model[layer : layer+1]
	}
	dst = binary.LittleEndian.AppendUint32(dst, modelMagic)
	dst = binary.LittleEndian.AppendUint32(dst, modelWireVersion)
	dst = binary.LittleEndian.AppendUint64(dst, stamp)
	dst = binary.LittleEndian.AppendUint64(dst, gen)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(layers)))
	for _, l := range layers {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(l)))
	}
	for _, l := range layers {
		for _, v := range l {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
		}
	}
	return dst
}

// DecodeModelDump parses a /model response (tests and Go-side evaluators).
func DecodeModelDump(b []byte) (model [][]float32, stamp, gen uint64, err error) {
	if len(b) < modelHeaderLen || binary.LittleEndian.Uint32(b) != modelMagic {
		return nil, 0, 0, fmt.Errorf("replica: bad model dump magic")
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != modelWireVersion {
		return nil, 0, 0, fmt.Errorf("replica: model dump version %d unsupported", v)
	}
	stamp = binary.LittleEndian.Uint64(b[8:])
	gen = binary.LittleEndian.Uint64(b[16:])
	layers := int(binary.LittleEndian.Uint32(b[24:]))
	off := modelHeaderLen
	if layers < 0 || len(b) < off+4*layers {
		return nil, 0, 0, fmt.Errorf("replica: truncated model dump header")
	}
	sizes := make([]int, layers)
	total := 0
	for i := range sizes {
		sizes[i] = int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		total += sizes[i]
	}
	if len(b) != off+4*total {
		return nil, 0, 0, fmt.Errorf("replica: model dump length %d, want %d", len(b), off+4*total)
	}
	model = make([][]float32, layers)
	for i, sz := range sizes {
		model[i] = make([]float32, sz)
		for j := range model[i] {
			model[i][j] = math.Float32frombits(binary.LittleEndian.Uint32(b[off:]))
			off += 4
		}
	}
	return model, stamp, gen, nil
}

func (h *httpServer) stats(w http.ResponseWriter, _ *http.Request) {
	st := h.r.Stats()
	out := map[string]any{
		"polls":             st.Polls,
		"empty_polls":       st.EmptyPolls,
		"applied_coords":    st.AppliedCoords,
		"resyncs":           st.Resyncs,
		"rebases":           st.Rebases,
		"reads":             st.Reads,
		"generation":        st.Generation,
		"stamp":             st.Stamp,
		"staleness_seconds": st.Staleness.Seconds(),
	}
	if err := h.r.LastErr(); err != nil {
		out["last_error"] = err.Error()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (h *httpServer) healthz(w http.ResponseWriter, _ *http.Request) {
	if err := h.r.Err(); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}
