package trainer

import (
	"testing"
	"time"

	"dgs/internal/ps"
	"dgs/internal/sparse"
	"dgs/internal/tensor"
	"dgs/internal/transport"
)

// Cross-version compatibility of the v3 codec negotiation (DESIGN.md §14):
// raw frames are bitwise the legacy v2 encoding, so these tests pin down
// that a v2 peer on either end of the exchange degrades the run to codec 0
// instead of breaking it.

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
	// Values of equal magnitude survive both lossy codecs exactly (ternary
	// projects onto ±max, sbc onto ±mean), keeping these tests about frame
	// negotiation rather than quantization error.
	return &sparse.Update{Chunks: []sparse.Chunk{
		{Layer: 0, Idx: []int32{1, 4, 9}, Val: []float32{1, -1, 1}},
	}}
}

// TestMirrorPolicyAnswersInRequestCodec: the default policy answers every
// request in the codec it arrived in — raw stays raw (v2 workers never see
// a v3 frame), lossy codecs are mirrored back, and the drain rule overrides
// even a lossy request with a raw answer.
func TestMirrorPolicyAnswersInRequestCodec(t *testing.T) {
	server := ps.NewServer(ps.Config{LayerSizes: []int{32}, Workers: 2, Quiet: true})
	h, err := HandlerWithCodec(server, "mirror")
	if err != nil {
		t.Fatal(err)
	}
	g := compatUpdate()
	// Worker 1 keeps moving M so worker 0 always has a nonzero difference
	// pending — a zero response would make the codec checks vacuous.
	compatPush(t, h, 1, sparse.Encode(g))
	if id := compatPush(t, h, 0, sparse.Encode(g)); id != sparse.CodecRaw {
		t.Fatalf("raw request answered with codec %d, want raw", id)
	}
	compatPush(t, h, 1, sparse.Encode(g))
	if id := compatPush(t, h, 0, encodeWith(t, "ternary", g)); id != sparse.CodecTernary {
		t.Fatalf("ternary request answered with codec %d, want ternary", id)
	}
	compatPush(t, h, 1, sparse.Encode(g))
	if id := compatPush(t, h, 0, encodeWith(t, "sbc", g)); id != sparse.CodecSBC {
		t.Fatalf("sbc request answered with codec %d, want sbc", id)
	}
	// Drain rule: an empty push is answered raw no matter how it is framed,
	// so the drain fixpoint converges on exact diffs.
	compatPush(t, h, 1, sparse.Encode(g))
	if id := compatPush(t, h, 0, encodeWith(t, "ternary", &sparse.Update{})); id != sparse.CodecRaw {
		t.Fatalf("drain answered with codec %d, want raw", id)
	}
}

// TestForcedPolicyAppliesOnlyToV3Requests: a forced codec binds v3 peers,
// but a raw request may come from a v2 worker that cannot decode a v3
// frame — it must still be answered raw.
func TestForcedPolicyAppliesOnlyToV3Requests(t *testing.T) {
	server := ps.NewServer(ps.Config{LayerSizes: []int{32}, Workers: 2, Quiet: true})
	h, err := HandlerWithCodec(server, "ternary")
	if err != nil {
		t.Fatal(err)
	}
	g := compatUpdate()
	compatPush(t, h, 1, sparse.Encode(g))
	if id := compatPush(t, h, 0, sparse.Encode(g)); id != sparse.CodecRaw {
		t.Fatalf("raw request under forced policy answered with codec %d, want raw", id)
	}
	// A v3 request in a different codec gets the forced one, not a mirror.
	compatPush(t, h, 1, sparse.Encode(g))
	if id := compatPush(t, h, 0, encodeWith(t, "sbc", g)); id != sparse.CodecTernary {
		t.Fatalf("sbc request under forced ternary answered with codec %d, want ternary", id)
	}
}

// TestForcedRawPolicyPinsDownward: "-codec raw" must answer even lossy v3
// requests with codec 0 — the operator escape hatch for suspect links.
func TestForcedRawPolicyPinsDownward(t *testing.T) {
	server := ps.NewServer(ps.Config{LayerSizes: []int{32}, Workers: 2, Quiet: true})
	h, err := HandlerWithCodec(server, "raw")
	if err != nil {
		t.Fatal(err)
	}
	g := compatUpdate()
	compatPush(t, h, 1, sparse.Encode(g))
	if id := compatPush(t, h, 0, encodeWith(t, "ternary", g)); id != sparse.CodecRaw {
		t.Fatalf("ternary request under forced raw answered with codec %d, want raw", id)
	}
}

// noFoldPusher exposes only the ps.Pusher surface of a server, hiding
// FoldDown: the shape of a library caller's Pusher that cannot absorb
// quantization error.
type noFoldPusher struct{ ps.Pusher }

// TestBaselineServerAnsweredRaw: a server without FoldDown support cannot
// absorb downward quantization error, so the mirror policy must degrade it
// to raw answers, and forcing a lossy codec onto it must fail up front.
func TestBaselineServerAnsweredRaw(t *testing.T) {
	base := noFoldPusher{ps.NewServer(ps.Config{LayerSizes: []int{32}, Workers: 2, Quiet: true})}
	h, err := HandlerWithCodec(base, "mirror")
	if err != nil {
		t.Fatal(err)
	}
	g := compatUpdate()
	compatPush(t, h, 1, sparse.Encode(g))
	if id := compatPush(t, h, 0, encodeWith(t, "ternary", g)); id != sparse.CodecRaw {
		t.Fatalf("fold-incapable server answered with codec %d, want raw", id)
	}
	if _, err := HandlerWithCodec(base, "ternary"); err == nil {
		t.Fatal("forcing a lossy codec onto a fold-incapable server must fail")
	}
	if _, err := HandlerWithCodec(base, "no-such-codec"); err == nil {
		t.Fatal("unknown codec policy must fail")
	}
}

// The acceptance-criteria chaos run under double quantization: every
// exchange both ways rides the ternary codec (mirror policy), faults and a
// worker crash included, and after draining each worker the server must
// still satisfy v_k == M bitwise — quantization error folded into residual
// state on both sides, never lost.
func TestChaosQuantizedTrainingDrainsExact(t *testing.T) {
	cfg := quickConfig(DGS, 4)
	cfg.Codec = "ternary"
	proto := cfg.BuildModel(tensor.NewRNG(cfg.Seed))
	sizes := proto.LayerSizes()
	server := ps.NewServer(ps.Config{LayerSizes: sizes, Workers: 4})
	eo, err := ExactlyOnceHandlerWithCodec(server, "mirror")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := transport.ListenTCP("127.0.0.1:0", eo.Handle)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetExchangeTimeout(20 * time.Second)
	defer srv.Close()

	// Worker 3 crashes mid-training and rejoins; the resync dense snapshot
	// must stay exact under the lossy codec (drains and snapshots are
	// answered raw).
	f := chaosFleet(srv.Addr(), 1)
	defer f.close()
	results := runChaos(t, cfg, f)
	if acc := results[0].FinalAccuracy; acc < 0.6 {
		t.Fatalf("final accuracy %.3f under quantized chaos; training diverged", acc)
	}
	if ss := eo.Stats(); ss.Replays == 0 {
		t.Fatal("no replays recorded — the fault schedule never exercised the replay cache")
	}

	// The drain decodes with the strict legacy decoder, so it doubles as the
	// end-to-end check that drains are answered raw; a quantization error
	// leaked out of residual state would leave v_k != M.
	requireDrainedFixpoint(t, f, server, sizes, 4)
}
