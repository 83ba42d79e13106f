package sparse

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"dgs/internal/tensor"
)

// checkBound asserts EncodedLenBound's two promises for u: it is at least
// the encoded length, and AppendEncode into a dst with exactly that much
// spare capacity writes in place — the same backing array, prefix intact.
func checkBound(t *testing.T, name string, u *Update) {
	t.Helper()
	enc := Encode(u)
	bound := EncodedLenBound(u)
	if len(enc) > bound {
		t.Fatalf("%s: bound %d below encoded length %d", name, bound, len(enc))
	}
	prefix := []byte("envelope")
	dst := make([]byte, len(prefix), len(prefix)+bound)
	copy(dst, prefix)
	out := AppendEncode(dst, u)
	if &out[0] != &dst[0] {
		t.Fatalf("%s: AppendEncode reallocated with %d spare bytes for a %d-byte frame", name, bound, len(enc))
	}
	if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], enc) {
		t.Fatalf("%s: in-place AppendEncode differs from Encode", name)
	}
}

// chunkFromGaps builds an ascending chunk whose successive index gaps are
// drawn by gap; indices stop before they would pass math.MaxInt32.
func chunkFromGaps(layer, n int, gap func() int64) Chunk {
	c := Chunk{Layer: layer}
	prev := int64(-1)
	for len(c.Idx) < n {
		j := prev + 1 + gap()
		if j > math.MaxInt32 {
			break
		}
		c.Idx = append(c.Idx, int32(j))
		c.Val = append(c.Val, float32(j))
		prev = j
	}
	return c
}

// TestEncodedLenBound: the bound holds on random ascending chunks whose
// gaps run from 0 to 2³¹−1 — uniform, log-uniform (every varint length
// equally likely) and clustered runs with rare long jumps — and on the
// edges: single-nnz chunks (index 0 and 2³¹−1), dense chunks 0..n−1, empty
// chunks, an empty update, and layer ids needing multi-byte varints.
func TestEncodedLenBound(t *testing.T) {
	rng := tensor.NewRNG(71)
	logUniform := func() int64 { return int64(rng.Uint64() >> (33 + rng.Intn(32))) }
	gaps := map[string]func() int64{
		"zero":        func() int64 { return 0 },
		"uniform127":  func() int64 { return int64(rng.Intn(128)) },
		"uniform2^20": func() int64 { return int64(rng.Intn(1 << 20)) },
		"logUniform":  logUniform,
		"clustered": func() int64 {
			if rng.Intn(64) == 0 {
				return logUniform()
			}
			return 0
		},
		"max": func() int64 { return math.MaxInt32 },
	}
	for name, gap := range gaps {
		for _, n := range []int{1, 2, 3, 7, 100, 4096} {
			for trial := 0; trial < 20; trial++ {
				u := &Update{}
				for layer := 0; layer < 3; layer++ {
					u.Chunks = append(u.Chunks, chunkFromGaps(layer, n, gap))
				}
				checkBound(t, name, u)
			}
		}
	}
	step := 0
	oneJump := func() int64 {
		if step++; step == 5000 {
			return 128
		}
		return 0
	}
	edges := map[string]*Update{
		"empty update": {},
		"empty chunk":  {Chunks: []Chunk{{Layer: 4}}},
		"single 0":     {Chunks: []Chunk{{Layer: 0, Idx: []int32{0}, Val: []float32{1}}}},
		"single max":   {Chunks: []Chunk{{Layer: 0, Idx: []int32{math.MaxInt32}, Val: []float32{1}}}},
		"dense":        {Chunks: []Chunk{chunkFromGaps(1, 1000, func() int64 { return 0 })}},
		"dense+sparse": {Chunks: []Chunk{chunkFromGaps(0, 5, func() int64 { return 0 }), {Layer: 1, Idx: []int32{3, 1 << 30}, Val: []float32{1, 2}}}},
		"big layer":    {Chunks: []Chunk{{Layer: 1 << 40, Idx: []int32{1 << 20}, Val: []float32{1}}}},
		// A long run with one two-byte gap: s/n is barely above 1, so the
		// bound's slack over n one-byte gaps is its rounding alone.
		"run with one jump": {Chunks: []Chunk{chunkFromGaps(0, 10000, oneJump)}},
	}
	for name, u := range edges {
		checkBound(t, name, u)
	}
}

// FuzzEncodedLenBound reads the input as a stream of uvarints: an odd value
// starts a new chunk, an even value v adds the next index at gap v/2 (gaps
// past 2³¹−1 start a new chunk instead). Whatever update results, the bound
// must hold and AppendEncode must fill it in place.
func FuzzEncodedLenBound(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0x00, 0x00, 0x00, 0x01, 0x00})
	f.Add([]byte{0xFE, 0xFF, 0xFF, 0xFF, 0x0F, 0x01, 0x80, 0x02, 0x80, 0x02})
	f.Add(append(bytes.Repeat([]byte{0x00}, 200), 0x80, 0x02)) // a run, then one gap of 128
	f.Fuzz(func(t *testing.T, b []byte) {
		u := &Update{}
		var c *Chunk
		prev := int64(-1)
		for len(b) > 0 {
			v, n := binary.Uvarint(b)
			if n <= 0 {
				break
			}
			b = b[n:]
			j := prev + 1 + int64(min(v/2, math.MaxInt32))
			if c == nil || v%2 == 1 || j > math.MaxInt32 {
				c = u.NextChunk()
				c.Layer = len(u.Chunks) - 1
				c.Idx, c.Val = c.Idx[:0], c.Val[:0]
				prev = -1
				if v%2 == 1 {
					continue
				}
				j = int64(min(v/2, math.MaxInt32))
			}
			c.Idx = append(c.Idx, int32(j))
			c.Val = append(c.Val, 1)
			prev = j
		}
		checkBound(t, "fuzz", u)
	})
}
