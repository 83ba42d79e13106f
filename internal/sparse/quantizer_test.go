package sparse_test

import (
	"math"
	"testing"

	"dgs/internal/sparse"
	"dgs/internal/tensor"
)

// quantizers returns every lossy codec and fails the test unless sbc is
// among them, so a codec dropped from the table cannot shrink what is
// covered.
func quantizers(t *testing.T) []sparse.Quantizer {
	t.Helper()
	var out []sparse.Quantizer
	sbc := false
	for _, c := range sparse.Codecs() {
		if q, ok := c.(sparse.Quantizer); ok {
			out = append(out, q)
			sbc = sbc || c.Name() == "sbc"
		}
	}
	if !sbc {
		t.Fatalf("sbc is not registered as a Quantizer (have %v)", sparse.CodecNames())
	}
	return out
}

func randomUpdate(rng *tensor.RNG) *sparse.Update {
	u := &sparse.Update{}
	for layer, n := range []int{64, 7, 200} {
		c := u.NextChunk()
		c.Layer = layer
		for j := 0; j < n; j++ {
			c.Idx = append(c.Idx, int32(j*3))
		}
		c.Val = make([]float32, n)
		rng.FillNormal(c.Val, 0, 1)
	}
	return u
}

// TestQuantizeErrorContract checks the Quantizer contract every residual
// fold relies on: per src coordinate, the stored error is exactly the
// single float32 subtraction v − q (with q = 0 where the coordinate was
// dropped from dst, so dropped values land in errOut in full, bitwise),
// zero errors are skipped, and neither output invents coordinates.
func TestQuantizeErrorContract(t *testing.T) {
	for _, q := range quantizers(t) {
		rng := tensor.NewRNG(11)
		src := randomUpdate(rng)
		var dst, errOut sparse.Update
		q.Quantize(&dst, src, &errOut)

		type key struct {
			layer int
			idx   int32
		}
		collect := func(u *sparse.Update) map[key]float32 {
			m := map[key]float32{}
			for i := range u.Chunks {
				c := &u.Chunks[i]
				for j, idx := range c.Idx {
					if _, dup := m[key{c.Layer, idx}]; dup {
						t.Fatalf("%s: duplicate coordinate (%d,%d)", q.Name(), c.Layer, idx)
					}
					m[key{c.Layer, idx}] = c.Val[j]
				}
			}
			return m
		}
		qv, ev := collect(&dst), collect(&errOut)
		for i := range src.Chunks {
			c := &src.Chunks[i]
			for j, idx := range c.Idx {
				k := key{c.Layer, idx}
				v := c.Val[j]
				want := v - qv[k] // qv is 0 for dropped coordinates
				got, present := ev[k]
				if want == 0 {
					if present {
						t.Fatalf("%s: layer %d idx %d: zero error stored as %v", q.Name(), c.Layer, idx, got)
					}
				} else if math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("%s: layer %d idx %d: err = %v (bits %x), want v−q = %v (bits %x)",
						q.Name(), c.Layer, idx, got, math.Float32bits(got), want, math.Float32bits(want))
				}
				delete(qv, k)
				delete(ev, k)
			}
		}
		for k := range qv {
			t.Fatalf("%s: dst carries coordinate (%d,%d) absent from src", q.Name(), k.layer, k.idx)
		}
		for k := range ev {
			t.Fatalf("%s: errOut carries coordinate (%d,%d) absent from src", q.Name(), k.layer, k.idx)
		}
	}
}

// TestQuantizeDoesNotMutateSrc pins the other half of the contract: the
// optimizer's prepared update must come back untouched, because the
// fallback-to-raw path re-sends it and the optimizer owns its storage.
func TestQuantizeDoesNotMutateSrc(t *testing.T) {
	for _, q := range quantizers(t) {
		rng := tensor.NewRNG(12)
		src := randomUpdate(rng)
		want := append([]byte(nil), sparse.Encode(src)...)
		var dst, errOut sparse.Update
		q.Quantize(&dst, src, &errOut)
		if got := sparse.Encode(src); string(got) != string(want) {
			t.Fatalf("%s: Quantize mutated src", q.Name())
		}
	}
}

// TestCodecRoundTripExact checks the encode-decode identity on quantized
// input: the frame must reconstruct exactly the values Quantize produced,
// bit for bit — this is what lets both sides of the exchange apply identical
// values (Eq. 5).
func TestCodecRoundTripExact(t *testing.T) {
	for _, q := range quantizers(t) {
		rng := tensor.NewRNG(13)
		src := randomUpdate(rng)
		var dst, errOut, dec sparse.Update
		q.Quantize(&dst, src, &errOut)
		if dst.NNZ() == 0 {
			t.Fatalf("%s: quantizer dropped everything", q.Name())
		}
		frame := q.AppendEncode(nil, &dst)
		if err := sparse.DecodeAnyInto(&dec, frame); err != nil {
			t.Fatalf("%s: decode: %v", q.Name(), err)
		}
		if len(dec.Chunks) != len(dst.Chunks) {
			t.Fatalf("%s: %d chunks decoded, want %d", q.Name(), len(dec.Chunks), len(dst.Chunks))
		}
		for i := range dst.Chunks {
			want, got := &dst.Chunks[i], &dec.Chunks[i]
			if want.Layer != got.Layer || len(want.Idx) != len(got.Idx) {
				t.Fatalf("%s: chunk %d shape mismatch", q.Name(), i)
			}
			for j := range want.Idx {
				if want.Idx[j] != got.Idx[j] {
					t.Fatalf("%s: chunk %d idx %d: %d != %d", q.Name(), i, j, got.Idx[j], want.Idx[j])
				}
				if math.Float32bits(want.Val[j]) != math.Float32bits(got.Val[j]) {
					t.Fatalf("%s: chunk %d idx %d: value bits %x != %x",
						q.Name(), i, j, math.Float32bits(got.Val[j]), math.Float32bits(want.Val[j]))
				}
			}
		}
	}
}
