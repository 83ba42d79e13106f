package sparse

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the wire decoder: it must never
// panic, and anything it accepts must re-encode to a decodable update
// (decode–encode–decode fixpoint).
func FuzzDecode(f *testing.F) {
	// Seed with valid encodings and near-miss corruptions.
	u := &Update{Chunks: []Chunk{
		{Layer: 0, Idx: []int32{0, 3, 9}, Val: []float32{1, -2, 0.5}},
		{Layer: 2, Idx: []int32{7}, Val: []float32{42}},
	}}
	valid := Encode(u)
	f.Add(valid)
	f.Add(Encode(&Update{}))
	f.Add([]byte{})
	f.Add(appendHeader(nil, CodecRaw)) // header only
	corrupted := append([]byte(nil), valid...)
	corrupted[len(corrupted)/2] ^= 0xFF
	f.Add(corrupted)
	// Hostile small frames claiming huge element counts: the decoder must
	// bound nnz and the chunk count by the bytes actually remaining instead
	// of allocating first. A 21-byte frame must never trigger a giant make.
	hugeNNZ := append(appendHeader(nil, CodecRaw),
		0x01,                         // one chunk
		0x00,                         // layer 0
		0x00,                         // flags: sparse
		0xFF, 0xFF, 0xFF, 0xFF, 0x7F, // nnz ≈ 34 billion
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00) // 8 leftover bytes
	f.Add(hugeNNZ)
	hugeDense := append([]byte(nil), hugeNNZ...)
	hugeDense[headerLen+2] = 0x01 // flags: dense — values alone would still be ~128 GiB
	f.Add(hugeDense)
	f.Add(append(appendHeader(nil, CodecRaw), 0xFF, 0xFF, 0xFF, 0x7F)) // huge chunk count, empty body
	f.Add(retiredDGS1Frame())

	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecode(t, b)
	})
}

// FuzzDecodeAny feeds arbitrary bytes to DecodeAnyInto, which dispatches
// on the header's codec id: it must never panic, hostile frames
// (unknown ids, truncated headers, implausible counts, over-long Rice runs)
// must error, and anything it accepts must re-encode through the same codec
// to a decodable fixpoint.
func FuzzDecodeAny(f *testing.F) {
	u := &Update{Chunks: []Chunk{
		{Layer: 0, Idx: []int32{0, 3, 9}, Val: []float32{1, -2, 0.5}},
		{Layer: 2, Idx: []int32{7, 70, 700}, Val: []float32{42, -1, -3}},
	}}
	f.Add(Encode(u))
	sbc, err := CodecByName("sbc")
	if err != nil {
		f.Fatal(err)
	}
	var q, e Update
	sbc.(Quantizer).Quantize(&q, u, &e)
	f.Add(sbc.AppendEncode(nil, &q))
	f.Add(sbc.AppendEncode(nil, u)) // unquantized input: the lossy projection
	f.Add(sbc.AppendEncode(nil, &Update{}))

	f.Add(appendHeader(nil, 0x7F))        // unknown codec id
	f.Add([]byte{0x33, 0x53, 0x47, 0x44}) // magic, truncated before the id
	f.Add(appendHeader(nil, CodecSBC))    // sbc header, empty body

	// Hostile sbc frame: one chunk claiming ~34 billion entries with no
	// bitstream behind it. The nnz bound must reject it before allocating.
	hugeNNZ := appendHeader(nil, CodecSBC)
	hugeNNZ = append(hugeNNZ, 0x01, 0x00)                   // one chunk, layer 0
	hugeNNZ = append(hugeNNZ, make([]byte, 8)...)           // μ+ = μ− = 0
	hugeNNZ = append(hugeNNZ, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F) // nnz ≈ 34 billion
	hugeNNZ = append(hugeNNZ, 0x00)                         // Rice k = 0
	f.Add(hugeNNZ)

	// Rice parameter beyond the 30-bit cap.
	badK := appendHeader(nil, CodecSBC)
	badK = append(badK, 0x01, 0x00)
	badK = append(badK, make([]byte, 8)...)
	badK = append(badK, 0x01, 31, 0x00)
	f.Add(badK)

	// Unary run past maxUnaryRun: 64 one-bits with no terminator.
	longRun := appendHeader(nil, CodecSBC)
	longRun = append(longRun, 0x01, 0x00)
	longRun = append(longRun, make([]byte, 8)...)
	longRun = append(longRun, 0x01, 0x00)
	longRun = append(longRun, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
	f.Add(longRun)

	f.Add(retiredTernaryFrame())
	f.Add(retiredDGS1Frame())

	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecodeAny(t, b)
	})
}

// retiredDGS1Frame is a well-formed raw body under the retired "DGS1"
// magic, which once framed raw bodies without a codec id. No fleet holds
// such frames, so every decoder refuses one as a bad magic.
func retiredDGS1Frame() []byte {
	return []byte{
		0x31, 0x53, 0x47, 0x44, // little-endian "DGS1"
		0x01, 0x00, 0x00, 0x02, // one chunk: layer 0, sparse, nnz 2
		0x01, 0x03, // index gaps: indices 1 and 5
		0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x00, 0xc0, // values 1 and −2
	}
}

// retiredTernaryFrame is a well-formed frame of the removed ternary codec,
// id 1: one chunk, layer 0, scale 2, indices 1 and 5 as deltas, then the
// sign byte (the second value negative). The id stays reserved, so every
// process refuses such a frame as an unknown codec.
func retiredTernaryFrame() []byte {
	return append(appendHeader(nil, 1), 0x01, 0x00, 0x00, 0x00, 0x00, 0x40, 0x02, 0x01, 0x04, 0x02)
}

// TestDecodeAnyRejectsHostileFrames pins the hostile-frame behaviour of the
// id dispatch down as a plain test (the fuzz seeds only assert "no panic"):
// retired magics, unknown codec ids, truncated headers, implausible counts,
// and over-long unary runs must all error.
func TestDecodeAnyRejectsHostileFrames(t *testing.T) {
	frames := map[string][]byte{
		"unknown codec id":  appendHeader(nil, 0x7F),
		"truncated header":  {0x33, 0x53, 0x47, 0x44},
		"empty sbc body":    appendHeader(nil, CodecSBC),
		"huge sbc nnz":      append(appendHeader(nil, CodecSBC), 0x01, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0x00),
		"rice k 31":         append(appendHeader(nil, CodecSBC), 0x01, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0x01, 31, 0x00),
		"unary run 64":      append(appendHeader(nil, CodecSBC), 0x01, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0x01, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF),
		"trailing sbc byte": append(sbcFrame(t), 0x00),
		"retired id 1":      retiredTernaryFrame(),
		"retired DGS1":      retiredDGS1Frame(),
	}
	var u Update
	for name, b := range frames {
		if err := DecodeAnyInto(&u, b); err == nil {
			t.Errorf("%s: hostile frame decoded without error", name)
		}
	}
}

func sbcFrame(t *testing.T) []byte {
	t.Helper()
	c, err := CodecByName("sbc")
	if err != nil {
		t.Fatal(err)
	}
	return c.AppendEncode(nil, &Update{Chunks: []Chunk{
		{Layer: 0, Idx: []int32{1, 5}, Val: []float32{2, 2}},
	}})
}

// checkDecodeAny mirrors checkDecode for the id dispatch: an accepted
// frame must re-encode through its own codec to a stable fixpoint.
func checkDecodeAny(t *testing.T, b []byte) {
	var u Update
	if err := DecodeAnyInto(&u, b); err != nil {
		return
	}
	id, err := FrameCodecID(b)
	if err != nil {
		t.Fatalf("accepted frame has no codec id: %v", err)
	}
	c, err := CodecByID(id)
	if err != nil {
		t.Fatalf("accepted frame has an unknown codec: %v", err)
	}
	re := c.AppendEncode(nil, &u)
	var u2 Update
	if err := DecodeAnyInto(&u2, re); err != nil {
		t.Fatalf("re-encode of accepted input failed to decode: %v", err)
	}
	if len(u2.Chunks) != len(u.Chunks) {
		t.Fatalf("chunk count changed across round trip")
	}
	if !bytes.Equal(re, c.AppendEncode(nil, &u2)) {
		t.Fatal("encoding not a fixpoint")
	}
}

// TestDecodeRejectsImplausibleCounts pins the hostile-frame behaviour down
// as a plain test (the fuzz seeds above only assert "no panic"): small
// frames claiming huge nnz or chunk counts must be rejected with an error,
// not answered with a multi-gigabyte allocation.
func TestDecodeRejectsImplausibleCounts(t *testing.T) {
	frames := [][]byte{
		append(appendHeader(nil, CodecRaw), 0x01, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0, 0, 0, 0, 0),
		append(appendHeader(nil, CodecRaw), 0x01, 0x00, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0, 0, 0, 0, 0),
		append(appendHeader(nil, CodecRaw), 0xFF, 0xFF, 0xFF, 0x7F),
	}
	for i, b := range frames {
		if _, err := Decode(b); err == nil {
			t.Errorf("frame %d: hostile %d-byte frame decoded without error", i, len(b))
		}
	}
}

// TestFrameGolden pins one raw and one sbc frame byte for byte: the header
// ("DGS3" little endian, then the codec id) and each codec's body. A change
// to either encoding shows up here as a diff of literal bytes.
func TestFrameGolden(t *testing.T) {
	raw := &Update{Chunks: []Chunk{
		{Layer: 0, Idx: []int32{1, 5}, Val: []float32{1.5, -2}},
		{Layer: 2, Idx: []int32{0, 1}, Val: []float32{0.25, 3}}, // dense
	}}
	sbc := &Update{Chunks: []Chunk{{Layer: 1, Idx: []int32{3, 4, 10}, Val: []float32{2, -0.5, 2}}}}
	for _, c := range []struct {
		codec byte
		u     *Update
		want  []byte
	}{
		{CodecRaw, raw, []byte{
			0x33, 0x53, 0x47, 0x44, 0x00, // header: magic, codec 0
			0x02,                         // two chunks
			0x00, 0x00, 0x02, 0x01, 0x03, // layer 0, sparse, nnz 2, gaps 1 and 3
			0x00, 0x00, 0xc0, 0x3f, 0x00, 0x00, 0x00, 0xc0, // 1.5, −2
			0x02, 0x01, 0x02, // layer 2, dense, nnz 2
			0x00, 0x00, 0x80, 0x3e, 0x00, 0x00, 0x40, 0x40, // 0.25, 3
		}},
		{CodecSBC, sbc, []byte{
			0x33, 0x53, 0x47, 0x44, 0x02, // header: magic, codec 2
			0x01, 0x01, // one chunk, layer 1
			0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x00, 0x3f, // μ+ 2, μ− 0.5
			0x03, 0x01, // nnz 3, Rice k 1
			0x65, 0x05, // gaps 3, 0, 5 then signs +, −, +
		}},
	} {
		codec, err := CodecByID(c.codec)
		if err != nil {
			t.Fatal(err)
		}
		got := codec.AppendEncode(nil, c.u)
		if !bytes.Equal(got, c.want) {
			t.Errorf("%s frame\n got % x\nwant % x", codec.Name(), got, c.want)
		}
		var u Update
		if err := DecodeAnyInto(&u, c.want); err != nil {
			t.Errorf("%s golden frame: %v", codec.Name(), err)
		} else if !reflect.DeepEqual(u.Chunks, c.u.Chunks) {
			t.Errorf("%s golden frame decodes to %v, want %v", codec.Name(), u.Chunks, c.u.Chunks)
		}
	}
}

// checkDecode is the fuzz body: anything the decoder accepts must round-trip
// through the encoder to a stable fixpoint.
func checkDecode(t *testing.T, b []byte) {
	u, err := Decode(b)
	if err != nil {
		return
	}
	re := Encode(u)
	u2, err := Decode(re)
	if err != nil {
		t.Fatalf("re-encode of accepted input failed to decode: %v", err)
	}
	if len(u2.Chunks) != len(u.Chunks) {
		t.Fatalf("chunk count changed across round trip")
	}
	if !bytes.Equal(re, Encode(u2)) {
		t.Fatal("encoding not a fixpoint")
	}
}
