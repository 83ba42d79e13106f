package trainer

import (
	"errors"
	"testing"
	"time"

	"dgs/internal/ps"
	"dgs/internal/sparse"
	"dgs/internal/transport"
)

// plainHandler is the codec handler without the session layer: one
// exchange per call, the downward frame in a fresh slice.
func plainHandler(server ps.Pusher) transport.Handler {
	h := newCodecHandler(server)
	return func(worker int, payload []byte) ([]byte, error) { return h.handle(nil, worker, payload) }
}

// serve serves server on a loopback port through Serve, the stack
// `dgs server` deploys, with a 20 s exchange deadline, until the test ends.
func serve(t *testing.T, server ps.Pusher) *Endpoint {
	t.Helper()
	ep, err := Serve(server, ServeOptions{Addr: "127.0.0.1:0", Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.TCP.Close() })
	return ep
}

func TestHandlerDecodesAndResponds(t *testing.T) {
	server := ps.NewServer(ps.Config{LayerSizes: []int{8}, Workers: 1})
	h := plainHandler(server)

	// A valid sparse push gets a decodable difference back.
	g := sparse.Update{Chunks: []sparse.Chunk{{Layer: 0, Idx: []int32{2}, Val: []float32{1.5}}}}
	resp, err := h(0, sparse.Encode(&g))
	if err != nil {
		t.Fatal(err)
	}
	G := new(sparse.Update)
	if err := sparse.DecodeInto(G, resp); err != nil {
		t.Fatal(err)
	}
	if G.NNZ() != 1 || G.Chunks[0].Idx[0] != 2 || G.Chunks[0].Val[0] != -1.5 {
		t.Fatalf("difference wrong: %+v", G)
	}
}

func TestHandlerEmptyPayloadIsEmptyPush(t *testing.T) {
	server := ps.NewServer(ps.Config{LayerSizes: []int{4}, Workers: 1})
	h := plainHandler(server)
	resp, err := h(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	G := new(sparse.Update)
	if err := sparse.DecodeInto(G, resp); err != nil {
		t.Fatal(err)
	}
	if G.NNZ() != 0 {
		t.Fatalf("fresh server should have nothing to send, got %d", G.NNZ())
	}
	if server.Timestamp() != 1 {
		t.Fatal("empty push must still advance the clock")
	}
}

func TestHandlerRejectsGarbage(t *testing.T) {
	server := ps.NewServer(ps.Config{LayerSizes: []int{4}, Workers: 1})
	h := plainHandler(server)
	if _, err := h(0, []byte("definitely not an update")); err == nil {
		t.Fatal("garbage payload must be rejected")
	}
	if server.Timestamp() != 0 {
		t.Fatal("rejected payload must not advance the server")
	}
}

func TestHandlerWorksWithShardedServer(t *testing.T) {
	shard := ps.NewShardedServer(ps.Config{LayerSizes: []int{6, 6}, Workers: 1}, 2)
	h := plainHandler(shard)
	g := sparse.Update{Chunks: []sparse.Chunk{
		{Layer: 0, Idx: []int32{0}, Val: []float32{1}},
		{Layer: 1, Idx: []int32{5}, Val: []float32{2}},
	}}
	resp, err := h(0, sparse.Encode(&g))
	if err != nil {
		t.Fatal(err)
	}
	G := new(sparse.Update)
	if err := sparse.DecodeInto(G, resp); err != nil {
		t.Fatal(err)
	}
	if err := G.Validate([]int{6, 6}); err != nil {
		t.Fatalf("sharded response invalid: %v", err)
	}
	// Both layers' differences must come back with global layer ids.
	seen := map[int]bool{}
	for _, c := range G.Chunks {
		seen[c.Layer] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("expected differences for both layers, got %+v", G.Chunks)
	}
}

// TestBadFrameOverTCPDoesNotWedgeServer sends, over real TCP through the
// production handler stack, a push that decodes but does not fit the model.
// It must come back as an error frame — never reach Push, whose apply phase
// would panic with the model write lock held — and both the other worker's
// and the offender's next valid pushes must complete.
func TestBadFrameOverTCPDoesNotWedgeServer(t *testing.T) {
	sizes := []int{8, 8}
	for _, tc := range []struct {
		name   string
		server ps.Pusher
		shards uint64
	}{
		{"server", ps.NewServer(ps.Config{LayerSizes: sizes, Workers: 2}), 1},
		{"sharded", ps.NewShardedServer(ps.Config{LayerSizes: sizes, Workers: 2}, 2), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dial := NewDialStack(DialOptions{Addr: serve(t, tc.server).TCP.Addr(), Timeout: 5 * time.Second})
			var conns [2]transport.Transport
			for k := range conns {
				var err error
				if conns[k], err = dial(); err != nil {
					t.Fatal(err)
				}
				defer conns[k].Close()
			}
			good := sparse.Encode(&sparse.Update{Chunks: []sparse.Chunk{{Layer: 1, Idx: []int32{3}, Val: []float32{1}}}})
			for _, bad := range []sparse.Update{
				{Chunks: []sparse.Chunk{{Layer: 2, Idx: []int32{0}, Val: []float32{1}}}},
				{Chunks: []sparse.Chunk{{Layer: 0, Idx: []int32{8}, Val: []float32{1}}}},
			} {
				var srvErr *transport.ServerError
				if _, err := conns[0].Exchange(0, sparse.Encode(&bad)); !errors.As(err, &srvErr) {
					t.Fatalf("bad frame: got %v, want an error frame", err)
				}
				for k, c := range conns {
					if _, err := c.Exchange(k, good); err != nil {
						t.Fatalf("worker %d push after the bad frame: %v", k, err)
					}
				}
			}
			// Only the valid pushes were applied: two rounds of two workers
			// (the sharded server counts each once per shard).
			if got := tc.server.Stats().Pushes; got != 4*tc.shards {
				t.Fatalf("server applied %d pushes, want %d", got, 4*tc.shards)
			}
		})
	}
}
