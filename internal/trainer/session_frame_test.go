package trainer

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dgs/internal/ps"
	"dgs/internal/raceflag"
	"dgs/internal/sparse"
	"dgs/internal/tensor"
)

// The session envelope's wire format (transport's exactly-once protocol),
// spelled out here so these tests can drive ExactlyOnce.Handle directly
// and check its responses byte for byte:
//
//	request:  u32 "DGSS" | u8 version 2 | u8 flags | u64 session | u64 seq
//	response: u32 "DGSR" | u8 version 2 | u8 status | u64 epoch | u64 incarnation
const (
	sessionHello      = 0x01
	sessionRespHeader = 4 + 1 + 1 + 8 + 8
)

// sessionReq frames payload in a session request envelope, reusing dst.
func sessionReq(dst []byte, flags byte, session, seq uint64, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst[:0], 0x53534744)
	dst = append(dst, 2, flags)
	dst = binary.LittleEndian.AppendUint64(dst, session)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	return append(dst, payload...)
}

// sessionOK is the envelope of a successful response.
func sessionOK(epoch, incarnation uint64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, 0x52534744)
	b = append(b, 2, 0)
	b = binary.LittleEndian.AppendUint64(b, epoch)
	return binary.LittleEndian.AppendUint64(b, incarnation)
}

// embedRowPush is a row-clustered embedding push: rows whole 64-element
// rows of one table, the shape the server-bound benchmark fleet sends.
func embedRowPush(rng *tensor.RNG, tableSize, rows int) *sparse.Update {
	const width = 64
	picked := map[int]bool{}
	for len(picked) < rows {
		picked[rng.Intn(tableSize/width)] = true
	}
	c := sparse.Chunk{}
	for r := 0; r < tableSize/width; r++ {
		if picked[r] {
			for j := 0; j < width; j++ {
				c.Idx = append(c.Idx, int32(r*width+j))
				c.Val = append(c.Val, rng.Float32()-0.5)
			}
		}
	}
	return &sparse.Update{Chunks: []sparse.Chunk{c}}
}

// TestSessionFrameAllocs pins the downward frame to one allocation: a
// steady-state raw embedding-row push through ExactlyOnceHandlerWithCodec
// allocates exactly once per executed frame — the buffer the encoder sizes
// from sparse.EncodedLenBound, with the envelope written into its reserved
// prefix — and not at all per replay, which answers from that same buffer.
func TestSessionFrameAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const tableSize = 1 << 16
	server := ps.NewServer(ps.Config{LayerSizes: []int{tableSize}, Workers: 1, Quiet: true})
	eo, err := ExactlyOnceHandlerWithCodec(server, "mirror")
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(5)
	pushes := [][]byte{
		sparse.Encode(embedRowPush(rng, tableSize, 16)),
		sparse.Encode(embedRowPush(rng, tableSize, 16)),
	}
	var req []byte
	var resp []byte
	seq := uint64(0)
	exchange := func() {
		seq++
		flags := byte(0)
		if seq == 1 {
			flags = sessionHello
		}
		req = sessionReq(req, flags, 7, seq, pushes[seq%2])
		if resp, err = eo.Handle(0, req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ { // hello and warm-up: pools, scratch, dirty blocks
		exchange()
	}
	if allocs := testing.AllocsPerRun(100, exchange); allocs != 1 {
		t.Fatalf("executed frame: %v allocs, want exactly 1", allocs)
	}

	var G sparse.Update
	if err := sparse.DecodeInto(&G, resp[sessionRespHeader:]); err != nil {
		t.Fatal(err)
	}
	if G.NNZ() == 0 {
		t.Fatal("steady-state difference is empty; the pin would measure nothing")
	}
	if limit := sessionRespHeader + sparse.EncodedLenBound(&G); cap(resp) > limit {
		t.Fatalf("response capacity %d exceeds envelope + bound = %d", cap(resp), limit)
	}

	last := append([]byte(nil), req...)
	want := append([]byte(nil), resp...)
	replay := func() {
		if resp, err = eo.Handle(0, last); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, replay); allocs != 0 {
		t.Fatalf("replay: %v allocs, want 0", allocs)
	}
	if !bytes.Equal(resp, want) {
		t.Fatal("replay differs from the executed answer")
	}
}

// TestSessionResponseIsEnvelopePlusFrame: for raw and sbc pushes,
// every session response is byte-equal to the OK envelope followed by the
// frame the plain handler (plainHandler, which encodes into a fresh
// slice) answers for the same exchange on an identical server — so writing
// the envelope in place changed no wire byte, lossy downward quantization
// and drain probes included.
func TestSessionResponseIsEnvelopePlusFrame(t *testing.T) {
	const size = 512
	for _, codec := range []string{"raw", "sbc"} {
		t.Run(codec, func(t *testing.T) {
			cfg := ps.Config{LayerSizes: []int{size, size}, Workers: 2, Quiet: true}
			eo, err := ExactlyOnceHandlerWithCodec(ps.NewServer(cfg), "mirror")
			if err != nil {
				t.Fatal(err)
			}
			plain := plainHandler(ps.NewServer(cfg))
			rng := tensor.NewRNG(11)
			var req []byte
			for seq := uint64(1); seq <= 12; seq++ {
				for w := 0; w < 2; w++ {
					var payload []byte
					if seq%5 != 0 { // every fifth round drains with empty pushes
						u := &sparse.Update{}
						for layer := 0; layer < 2; layer++ {
							x := make([]float32, size)
							rng.FillNormal(x, 0, 1)
							var sel sparse.Selector
							*u.NextChunk() = sparse.Gather(layer, x, sel.TopK(x, 20))
						}
						payload = encodeWith(t, codec, u)
					}
					flags := byte(0)
					if seq == 1 {
						flags = sessionHello
					}
					got, err := eo.Handle(w, sessionReq(req, flags, uint64(w+1), seq, payload))
					if err != nil {
						t.Fatal(err)
					}
					frame, err := plain(w, payload)
					if err != nil {
						t.Fatal(err)
					}
					if want := append(sessionOK(1, eo.Incarnation()), frame...); !bytes.Equal(got, want) {
						t.Fatalf("worker %d seq %d: session response is not envelope + plain frame", w, seq)
					}
				}
			}
		})
	}
}
