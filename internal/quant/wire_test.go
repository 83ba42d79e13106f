package quant

import (
	"sort"
	"testing"

	"dgs/internal/ps"
	"dgs/internal/sparse"
	"dgs/internal/tensor"
)

// Embed workload geometry: four embedding tables, and each push updates
// embedRowsPerPush whole embedRowWidth-element rows drawn at random — the
// row-clustered access of embedding-heavy models, where a push touches a
// tiny, block-aligned slice of a huge table.
const (
	embedTables      = 4
	embedTableSize   = 1 << 19
	embedRowWidth    = 64
	embedRowsPerPush = 64
)

// embedUpdates builds n fixed-seed pushes over the embed geometry, with
// indices ascending per table as the wire contract requires.
func embedUpdates(rng *tensor.RNG, n int) []sparse.Update {
	out := make([]sparse.Update, n)
	for v := range out {
		rows := make(map[[2]int]struct{}, embedRowsPerPush)
		for len(rows) < embedRowsPerPush {
			rows[[2]int{rng.Intn(embedTables), rng.Intn(embedTableSize / embedRowWidth)}] = struct{}{}
		}
		perTable := make([][]int, embedTables)
		for tr := range rows {
			perTable[tr[0]] = append(perTable[tr[0]], tr[1])
		}
		for table, trs := range perTable {
			if len(trs) == 0 {
				continue
			}
			sort.Ints(trs)
			c := out[v].NextChunk()
			c.Layer = table
			for _, r := range trs {
				for j := 0; j < embedRowWidth; j++ {
					c.Idx = append(c.Idx, int32(r*embedRowWidth+j))
				}
			}
			c.Val = make([]float32, len(c.Idx))
			rng.FillNormal(c.Val, 0, 0.01)
		}
	}
	return out
}

// wireBytes runs the double-compression exchange loop of DESIGN.md §14 for
// one codec against a fresh single-worker server and returns the total
// frame bytes sent up and down: quantize and encode each update, decode it
// as the server would, push the decoded values, then quantize the downward
// difference, fold its error into v_k and encode it. A raw codec skips
// both quantization steps.
func wireBytes(t *testing.T, codec sparse.Codec, sizes []int, updates []sparse.Update, steps int) (up, down int) {
	t.Helper()
	srv := ps.NewServer(ps.Config{LayerSizes: sizes, Workers: 1, Quiet: true})
	q, lossy := codec.(sparse.Quantizer)
	rng := tensor.NewRNG(0x3170 ^ uint64(codec.ID()))
	var qUp, eUp, qDown, eDown, dec sparse.Update
	var buf []byte
	for i := 0; i < steps; i++ {
		u := &updates[i%len(updates)]
		if lossy {
			q.Quantize(&qUp, u, rng, &eUp)
			u = &qUp
		}
		buf = codec.AppendEncode(buf[:0], u)
		up += len(buf)
		if err := sparse.DecodeAnyInto(&dec, buf); err != nil {
			t.Fatalf("%s: up decode: %v", codec.Name(), err)
		}

		G, _ := srv.Push(0, &dec)
		g := &G
		if lossy {
			q.Quantize(&qDown, g, rng, &eDown)
			srv.FoldDown(0, &eDown)
			g = &qDown
		}
		buf = codec.AppendEncode(buf[:0], g)
		down += len(buf)
		if err := sparse.DecodeAnyInto(&dec, buf); err != nil {
			t.Fatalf("%s: down decode: %v", codec.Name(), err)
		}
	}
	return up, down
}

// TestLossyCodecWireRatio: every registered lossy codec at least halves the
// embed workload's wire against codec 0, in both directions. This is a
// byte count over a fixed-seed exchange sequence, not a timing. A non-raw
// codec that is not a Quantizer, or a missing ternary or sbc registration,
// fails the test rather than shrinking what it covers.
func TestLossyCodecWireRatio(t *testing.T) {
	const steps = 16
	sizes := make([]int, embedTables)
	for i := range sizes {
		sizes[i] = embedTableSize
	}
	updates := embedUpdates(tensor.NewRNG(0x31A3), 4)

	raw, err := sparse.CodecByID(sparse.CodecRaw)
	if err != nil {
		t.Fatal(err)
	}
	rawUp, rawDown := wireBytes(t, raw, sizes, updates, steps)

	covered := map[string]bool{}
	for _, c := range sparse.Codecs() {
		if c.ID() == sparse.CodecRaw {
			continue
		}
		if _, ok := c.(sparse.Quantizer); !ok {
			t.Errorf("codec %s is registered but is not a Quantizer; its wire size is unchecked", c.Name())
			continue
		}
		up, down := wireBytes(t, c, sizes, updates, steps)
		t.Logf("%-8s up %.3fx raw, down %.3fx raw", c.Name(), float64(up)/float64(rawUp), float64(down)/float64(rawDown))
		if 2*up > rawUp {
			t.Errorf("%s: %d bytes up over %d steps, more than half of raw's %d", c.Name(), up, steps, rawUp)
		}
		if 2*down > rawDown {
			t.Errorf("%s: %d bytes down over %d steps, more than half of raw's %d", c.Name(), down, steps, rawDown)
		}
		covered[c.Name()] = true
	}
	for _, name := range []string{"ternary", "sbc"} {
		if !covered[name] {
			t.Errorf("lossy codec %q is not registered; the ratio check did not cover it", name)
		}
	}
}
