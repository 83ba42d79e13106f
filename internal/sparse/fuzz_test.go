package sparse

import (
	"bytes"
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
	f.Add([]byte{0x31, 0x53, 0x47, 0x44}) // magic only
	corrupted := append([]byte(nil), valid...)
	corrupted[len(corrupted)/2] ^= 0xFF
	f.Add(corrupted)
	// Hostile small frames claiming huge element counts: the decoder must
	// bound nnz and the chunk count by the bytes actually remaining instead
	// of allocating first. A 20-byte frame must never trigger a giant make.
	hugeNNZ := []byte{0x31, 0x53, 0x47, 0x44, // magic (little endian "DGS1")
		0x01,                         // one chunk
		0x00,                         // layer 0
		0x00,                         // flags: sparse
		0xFF, 0xFF, 0xFF, 0xFF, 0x7F, // nnz ≈ 34 billion
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00} // 8 leftover bytes
	f.Add(hugeNNZ)
	hugeDense := append([]byte(nil), hugeNNZ...)
	hugeDense[6] = 0x01 // flags: dense — values alone would still be ~128 GiB
	f.Add(hugeDense)
	f.Add([]byte{0x31, 0x53, 0x47, 0x44, 0xFF, 0xFF, 0xFF, 0x7F}) // huge chunk count, empty body

	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecode(t, b)
	})
}

// FuzzDecodeAny feeds arbitrary bytes to the generation-sniffing decoder,
// which dispatches on the v3 codec id: it must never panic, hostile frames
// (unknown ids, truncated headers, implausible counts, over-long Rice runs)
// must error, and anything it accepts must re-encode through the same codec
// to a decodable fixpoint.
func FuzzDecodeAny(f *testing.F) {
	u := &Update{Chunks: []Chunk{
		{Layer: 0, Idx: []int32{0, 3, 9}, Val: []float32{1, -2, 0.5}},
		{Layer: 2, Idx: []int32{7, 70, 700}, Val: []float32{42, -1, -3}},
	}}
	f.Add(Encode(u)) // legacy DGS1 frames are codec 0
	sbc, err := CodecByName("sbc")
	if err != nil {
		f.Fatal(err)
	}
	var q, e Update
	sbc.(Quantizer).Quantize(&q, u, &e)
	f.Add(sbc.AppendEncode(nil, &q))
	f.Add(sbc.AppendEncode(nil, u)) // unquantized input: the lossy projection
	f.Add(sbc.AppendEncode(nil, &Update{}))

	f.Add(AppendV3Header(nil, 0x7F))      // unknown codec id
	f.Add([]byte{0x33, 0x53, 0x47, 0x44}) // v3 magic, truncated before the id
	f.Add(AppendV3Header(nil, CodecSBC))  // sbc header, empty body

	// Hostile sbc frame: one chunk claiming ~34 billion entries with no
	// bitstream behind it. The nnz bound must reject it before allocating.
	hugeNNZ := AppendV3Header(nil, CodecSBC)
	hugeNNZ = append(hugeNNZ, 0x01, 0x00)                   // one chunk, layer 0
	hugeNNZ = append(hugeNNZ, make([]byte, 8)...)           // μ+ = μ− = 0
	hugeNNZ = append(hugeNNZ, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F) // nnz ≈ 34 billion
	hugeNNZ = append(hugeNNZ, 0x00)                         // Rice k = 0
	f.Add(hugeNNZ)

	// Rice parameter beyond the 30-bit cap.
	badK := AppendV3Header(nil, CodecSBC)
	badK = append(badK, 0x01, 0x00)
	badK = append(badK, make([]byte, 8)...)
	badK = append(badK, 0x01, 31, 0x00)
	f.Add(badK)

	// Unary run past maxUnaryRun: 64 one-bits with no terminator.
	longRun := AppendV3Header(nil, CodecSBC)
	longRun = append(longRun, 0x01, 0x00)
	longRun = append(longRun, make([]byte, 8)...)
	longRun = append(longRun, 0x01, 0x00)
	longRun = append(longRun, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
	f.Add(longRun)

	f.Add(retiredTernaryFrame())

	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecodeAny(t, b)
	})
}

// retiredTernaryFrame is a well-formed frame of the removed ternary codec,
// id 1: one chunk, layer 0, scale 2, indices 1 and 5 as deltas, then the
// sign byte (the second value negative). The id stays reserved, so every
// process refuses such a frame as an unknown codec.
func retiredTernaryFrame() []byte {
	return append(AppendV3Header(nil, 1), 0x01, 0x00, 0x00, 0x00, 0x00, 0x40, 0x02, 0x01, 0x04, 0x02)
}

// TestDecodeAnyRejectsHostileV3 pins the v3 hostile-frame behaviour down as
// a plain test (the fuzz seeds only assert "no panic"): unknown codec ids,
// truncated headers, implausible counts, and over-long unary runs must all
// error.
func TestDecodeAnyRejectsHostileV3(t *testing.T) {
	frames := map[string][]byte{
		"unknown codec id":  AppendV3Header(nil, 0x7F),
		"truncated header":  {0x33, 0x53, 0x47, 0x44},
		"empty sbc body":    AppendV3Header(nil, CodecSBC),
		"huge sbc nnz":      append(AppendV3Header(nil, CodecSBC), 0x01, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0x00),
		"rice k 31":         append(AppendV3Header(nil, CodecSBC), 0x01, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0x01, 31, 0x00),
		"unary run 64":      append(AppendV3Header(nil, CodecSBC), 0x01, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0x01, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF),
		"trailing sbc byte": append(sbcFrame(t), 0x00),
		"retired id 1":      retiredTernaryFrame(),
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

// checkDecodeAny mirrors checkDecode for the registry path: an accepted
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
		t.Fatalf("accepted frame has unregistered codec: %v", err)
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
		{0x31, 0x53, 0x47, 0x44, 0x01, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0, 0, 0, 0, 0},
		{0x31, 0x53, 0x47, 0x44, 0x01, 0x00, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0, 0, 0, 0, 0},
		{0x31, 0x53, 0x47, 0x44, 0xFF, 0xFF, 0xFF, 0x7F},
	}
	for i, b := range frames {
		if _, err := Decode(b); err == nil {
			t.Errorf("frame %d: hostile %d-byte frame decoded without error", i, len(b))
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
