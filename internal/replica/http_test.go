package replica

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// DecodeModelDump parses a /model response (see http.go for the layout).
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

// httpGet fetches url and returns the status code and body.
func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode, body
}

// TestReplicaHTTPEndpoints drives Replica.Handler over HTTP against a
// drained replica that polls no further (an hour-long interval), so every
// read sees one fixed mirror: /model is bitwise the mirror's Snapshot with
// its stamp and generation, ?layer=K returns that layer alone, a bad layer
// is a 400, /healthz is 200 while the subscription is live and /replicaz is
// JSON.
func TestReplicaHTTPEndpoints(t *testing.T) {
	sizes := []int{1 << 10, 129}
	u := startUpstream(t, sizes, 2)
	r, err := New(Config{
		LayerSizes:   sizes,
		Worker:       1,
		Dial:         DialStack(u.TCP.Addr(), 5*time.Second, 6, 2*time.Millisecond, 50*time.Millisecond),
		PollInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("replica: %v", err)
	}
	t.Cleanup(func() { r.Close() })

	wtr := dialTrainer(u.TCP.Addr())
	defer wtr.Close()
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 20; i++ {
		pushRandom(t, wtr, 0, rng, sizes)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Sync(ctx); err != nil {
		t.Fatalf("sync: %v", err)
	}
	want, wantStamp, wantGen := r.Snapshot(r.NewReaderState())
	if wantStamp == 0 {
		t.Fatal("mirror never applied an update")
	}

	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	status, body := httpGet(t, ts.URL+"/model")
	if status != http.StatusOK {
		t.Fatalf("/model: status %d: %s", status, body)
	}
	model, stamp, gen, err := DecodeModelDump(body)
	if err != nil {
		t.Fatalf("/model: %v", err)
	}
	if stamp != wantStamp || gen != wantGen {
		t.Fatalf("/model: stamp %d generation %d, want %d and %d", stamp, gen, wantStamp, wantGen)
	}
	requireBitwiseModel(t, "/model", model, want)

	status, body = httpGet(t, ts.URL+"/model?layer=1")
	if status != http.StatusOK {
		t.Fatalf("/model?layer=1: status %d: %s", status, body)
	}
	layer, _, _, err := DecodeModelDump(body)
	if err != nil {
		t.Fatalf("/model?layer=1: %v", err)
	}
	if len(layer) != 1 {
		t.Fatalf("/model?layer=1: %d layers, want 1", len(layer))
	}
	requireBitwiseModel(t, "/model?layer=1", layer, want[1:])

	for _, q := range []string{"2", "-1", "x", "1.0"} {
		if status, body := httpGet(t, ts.URL+"/model?layer="+q); status != http.StatusBadRequest {
			t.Errorf("/model?layer=%s: status %d, want 400: %s", q, status, body)
		}
	}

	if status, body := httpGet(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("/healthz on a live replica: status %d: %s", status, body)
	}

	status, body = httpGet(t, ts.URL+"/replicaz")
	if status != http.StatusOK {
		t.Fatalf("/replicaz: status %d: %s", status, body)
	}
	var stats map[string]any
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("/replicaz is not JSON: %v\n%s", err, body)
	}
	if polls, _ := stats["polls"].(float64); polls == 0 {
		t.Fatalf("/replicaz reports no polls: %s", body)
	}
}

// requireBitwiseModel asserts got and want hold the same layers with the
// same float32 bit patterns.
func requireBitwiseModel(t *testing.T, what string, got, want [][]float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d layers, want %d", what, len(got), len(want))
	}
	for l := range want {
		if len(got[l]) != len(want[l]) {
			t.Fatalf("%s: layer %d has %d elements, want %d", what, l, len(got[l]), len(want[l]))
		}
		for j := range want[l] {
			if math.Float32bits(got[l][j]) != math.Float32bits(want[l][j]) {
				t.Fatalf("%s: [%d][%d] = %v, want %v", what, l, j, got[l][j], want[l][j])
			}
		}
	}
}
