package trainer

import (
	"errors"
	"slices"
	"testing"
	"time"

	"dgs/internal/ps"
	"dgs/internal/sparse"
	"dgs/internal/tensor"
	"dgs/internal/transport"
)

// The downward codec (DESIGN.md §8): which codec each request is answered
// in, and which frames the exchange refuses without touching the server.

func encodeWith(t *testing.T, name string, u *sparse.Update) []byte {
	t.Helper()
	c, err := sparse.CodecByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return c.AppendEncode(nil, u)
}

// compatPush runs one exchange through the handler and returns the codec id
// of the response frame.
func compatPush(t *testing.T, h transport.Handler, worker int, payload []byte) byte {
	t.Helper()
	resp, err := h(worker, payload)
	if err != nil {
		t.Fatal(err)
	}
	id, err := sparse.FrameCodecID(resp)
	if err != nil {
		t.Fatalf("response frame unparseable: %v", err)
	}
	return id
}

func compatUpdate() *sparse.Update {
	// Values of equal magnitude survive SBC's projection onto ±mean exactly,
	// keeping these tests about frame negotiation rather than quantization
	// error.
	return &sparse.Update{Chunks: []sparse.Chunk{
		{Layer: 0, Idx: []int32{1, 4, 9}, Val: []float32{1, -1, 1}},
	}}
}

// TestMirrorPolicyAnswersInRequestCodec: the server answers every request
// in the codec it arrived in — raw stays raw (a raw worker gets
// exact values), lossy codecs are mirrored back, and the drain rule overrides
// even a lossy request with a raw answer.
func TestMirrorPolicyAnswersInRequestCodec(t *testing.T) {
	server := ps.NewServer(ps.Config{LayerSizes: []int{32}, Workers: 2, Quiet: true})
	h := plainHandler(server)
	g := compatUpdate()
	// Worker 1 keeps moving M so worker 0 always has a nonzero difference
	// pending — a zero response would make the codec checks vacuous.
	compatPush(t, h, 1, sparse.Encode(g))
	if id := compatPush(t, h, 0, sparse.Encode(g)); id != sparse.CodecRaw {
		t.Fatalf("raw request answered with codec %d, want raw", id)
	}
	compatPush(t, h, 1, sparse.Encode(g))
	if id := compatPush(t, h, 0, encodeWith(t, "sbc", g)); id != sparse.CodecSBC {
		t.Fatalf("sbc request answered with codec %d, want sbc", id)
	}
	// Drain rule: an empty push is answered raw no matter how it is framed,
	// so the drain fixpoint converges on exact diffs.
	compatPush(t, h, 1, sparse.Encode(g))
	if id := compatPush(t, h, 0, encodeWith(t, "sbc", &sparse.Update{})); id != sparse.CodecRaw {
		t.Fatalf("drain answered with codec %d, want raw", id)
	}
}

// noFoldPusher exposes only the ps.Pusher surface of a server, hiding
// FoldDown: the shape of a library caller's Pusher that cannot absorb
// quantization error.
type noFoldPusher struct{ ps.Pusher }

// TestBaselineServerAnsweredRaw: a server without FoldDown support cannot
// absorb downward quantization error, so its lossy requests are answered
// raw.
func TestBaselineServerAnsweredRaw(t *testing.T) {
	base := noFoldPusher{ps.NewServer(ps.Config{LayerSizes: []int{32}, Workers: 2, Quiet: true})}
	h := plainHandler(base)
	g := compatUpdate()
	compatPush(t, h, 1, sparse.Encode(g))
	if id := compatPush(t, h, 0, encodeWith(t, "sbc", g)); id != sparse.CodecRaw {
		t.Fatalf("fold-incapable server answered with codec %d, want raw", id)
	}
}

// TestExactlyOnceHandlerWithCodecPolicy: "" and "mirror" name the one
// downward policy, answering each request in its own codec; any other
// name, a codec's included, is refused.
func TestExactlyOnceHandlerWithCodecPolicy(t *testing.T) {
	server := ps.NewServer(ps.Config{LayerSizes: []int{32}, Workers: 1, Quiet: true})
	for _, policy := range []string{"", "mirror"} {
		if _, err := ExactlyOnceHandlerWithCodec(server, policy); err != nil {
			t.Errorf("policy %q: %v", policy, err)
		}
	}
	for _, policy := range []string{"raw", "sbc", "no-such-codec"} {
		if _, err := ExactlyOnceHandlerWithCodec(server, policy); err == nil {
			t.Errorf("policy %q accepted", policy)
		}
	}
}

// TestRetiredCodecIDRefused: codec id 1 belonged to the removed ternary
// codec and stays reserved. A push framed with it, sent over TCP through
// the production handler stack, must come back as an error frame, and the
// server must be left as it was: no push applied, M and v_k unchanged.
func TestRetiredCodecIDRefused(t *testing.T) {
	// One chunk, layer 0, scale 2, two delta-coded indices and a sign byte
	// after the header ("DGS3" little endian, id 1): a well-formed frame of
	// the retired codec.
	requireRefusedPush(t, []byte{0x33, 0x53, 0x47, 0x44, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x40, 0x02, 0x01, 0x04, 0x02})
}

// TestRetiredDGS1MagicRefused: raw bodies were once framed under a "DGS1"
// magic without a codec id. Every frame now carries the one header, so a
// well-formed update under the old magic is refused like any bad frame,
// and the server is left as it was.
func TestRetiredDGS1MagicRefused(t *testing.T) {
	requireRefusedPush(t, []byte{
		0x31, 0x53, 0x47, 0x44, // little-endian "DGS1"
		0x01, 0x00, 0x00, 0x02, // one chunk: layer 0, sparse, nnz 2
		0x01, 0x03, // index gaps: indices 1 and 5
		0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x00, 0xc0, // values 1 and −2
	})
}

// requireRefusedPush sends one accepted push, then frame, over TCP to a
// server behind Serve. frame must come back as an error frame with the
// server's push count, M and v_k unchanged, and the session must survive
// the refusal.
func requireRefusedPush(t *testing.T, frame []byte) {
	t.Helper()
	sizes := []int{8}
	server := ps.NewServer(ps.Config{LayerSizes: sizes, Workers: 1})
	conn, err := NewDialStack(DialOptions{Addr: serve(t, server).TCP.Addr(), Timeout: 5 * time.Second})()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Exchange(0, sparse.Encode(&sparse.Update{Chunks: []sparse.Chunk{{Layer: 0, Idx: []int32{3}, Val: []float32{1}}}})); err != nil {
		t.Fatal(err)
	}
	state := func() (m, v []float32, pushes uint64) {
		M, V := [][]float32{make([]float32, 8)}, [][]float32{make([]float32, 8)}
		server.MSnapshot(M)
		server.VSnapshot(0, V)
		return M[0], V[0], server.Stats().Pushes
	}
	m0, v0, p0 := state()

	var srvErr *transport.ServerError
	if _, err := conn.Exchange(0, frame); !errors.As(err, &srvErr) {
		t.Fatalf("push % x: got %v, want an error frame", frame, err)
	}
	m1, v1, p1 := state()
	if p1 != p0 || !slices.Equal(m1, m0) || !slices.Equal(v1, v0) {
		t.Fatalf("refused push changed the server: pushes %d → %d, M %v → %v, v_k %v → %v", p0, p1, m0, m1, v0, v1)
	}
	if _, err := conn.Exchange(0, sparse.Encode(&sparse.Update{})); err != nil {
		t.Fatalf("push after the refused frame: %v", err)
	}
}

// The acceptance-criteria chaos run under double quantization: every
// exchange both ways rides the SBC codec (mirror policy), faults and a
// worker crash included, and after draining each worker the server must
// still satisfy v_k == M bitwise — quantization error folded into residual
// state on both sides, never lost.
func TestChaosQuantizedTrainingDrainsExact(t *testing.T) {
	cfg := quickConfig(DGS, 4)
	cfg.Codec = "sbc"
	proto := cfg.BuildModel(tensor.NewRNG(cfg.Seed))
	sizes := proto.LayerSizes()
	server := ps.NewServer(ps.Config{LayerSizes: sizes, Workers: 4})
	ep := serve(t, server)

	// Worker 3 crashes mid-training and rejoins; the resync dense snapshot
	// must stay exact under the lossy codec (drains and snapshots are
	// answered raw).
	f := chaosFleet(ep.TCP.Addr(), 1)
	defer f.close()
	results := runChaos(t, cfg, f)
	if acc := results[0].FinalAccuracy; acc < 0.6 {
		t.Fatalf("final accuracy %.3f under quantized chaos; training diverged", acc)
	}
	if ss := ep.Sessions.Stats(); ss.Replays == 0 {
		t.Fatal("no replays recorded — the fault schedule never exercised the replay cache")
	}

	// The drain decodes with the strict raw decoder, so it doubles as the
	// end-to-end check that drains are answered raw; a quantization error
	// leaked out of residual state would leave v_k != M.
	requireDrainedFixpoint(t, f, server, sizes, 4)
}
