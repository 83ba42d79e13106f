package replica

import (
	"testing"

	"dgs/internal/ps"
	"dgs/internal/sparse"
)

// bareReplica builds a replica around a mirror only — no subscription loop,
// no transport — so applyFrame can be driven with hand-built wire bytes.
func bareReplica(sizes []int) *Replica {
	return &Replica{cfg: Config{LayerSizes: sizes}, mirror: ps.NewMirror(sizes, 1, 0)}
}

// frameHeader is the header every frame starts with: the magic "DGS3" (little
// endian), then the codec id.
func frameHeader(id byte) []byte { return []byte{0x33, 0x53, 0x47, 0x44, id} }

func mirrorIsZero(t *testing.T, r *Replica, sizes []int) bool {
	t.Helper()
	m := alloc(sizes)
	r.MSnapshot(m)
	for _, layer := range m {
		for _, v := range layer {
			if v != 0 {
				return false
			}
		}
	}
	return true
}

// rawFrame encodes u through the raw codec, failing the test on the
// panics the encoder reserves for programmer error (the hostile updates
// below stay within what the encoder accepts: ascending indices, matched
// idx/val lengths — the geometry violation is against the MODEL, which only
// Validate can see).
func rawFrame(u *sparse.Update) []byte {
	return sparse.Encode(u)
}

// TestReplicaRejectsHostileFrames pins the subscription decoder's contract:
// every frame is hostile input until DecodeAnyInto and Validate accept it,
// and a rejected frame must leave the mirror untouched — ApplyDiff indexes
// layers and offsets without bounds checks of its own.
func TestReplicaRejectsHostileFrames(t *testing.T) {
	sizes := []int{32, 17}
	frames := map[string][]byte{
		"empty":            {},
		"garbage":          {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01, 0x02},
		"truncated magic":  {0x33, 0x53, 0x47},
		"unknown codec id": frameHeader(0x7F),
		// A well-formed raw body inside the geometry under the retired
		// "DGS1" magic, which once framed raw bodies without a codec id:
		// refused as a bad magic.
		"retired DGS1": {
			0x31, 0x53, 0x47, 0x44, // little-endian "DGS1"
			0x01, 0x00, 0x00, 0x02, // one chunk: layer 0, sparse, nnz 2
			0x01, 0x03, // index gaps: indices 1 and 5
			0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x00, 0xc0, // values 1 and −2
		},
		"layer out of range": rawFrame(&sparse.Update{Chunks: []sparse.Chunk{
			{Layer: 7, Idx: []int32{0, 1}, Val: []float32{1, 2}},
		}}),
		"negative layer": rawFrame(&sparse.Update{Chunks: []sparse.Chunk{
			{Layer: -1, Idx: []int32{0}, Val: []float32{1}},
		}}),
		"index out of range": rawFrame(&sparse.Update{Chunks: []sparse.Chunk{
			{Layer: 1, Idx: []int32{3, 400}, Val: []float32{1, 2}},
		}}),
		"index far out of range": rawFrame(&sparse.Update{Chunks: []sparse.Chunk{
			{Layer: 0, Idx: []int32{1 << 28}, Val: []float32{1}},
		}}),
		"implausible nnz": append(frameHeader(sparse.CodecRaw),
			0x01,                         // one chunk
			0x00,                         // layer 0
			0x00,                         // flags: sparse
			0xFF, 0xFF, 0xFF, 0xFF, 0x7F, // nnz ≈ 34 billion
			0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00),
	}
	for name, b := range frames {
		r := bareReplica(sizes)
		nnz, err := r.applyFrame(b)
		if err == nil {
			t.Errorf("%s: hostile frame applied without error (nnz=%d)", name, nnz)
			continue
		}
		if nnz != 0 {
			t.Errorf("%s: rejected frame reported %d coordinates", name, nnz)
		}
		if !mirrorIsZero(t, r, sizes) {
			t.Errorf("%s: rejected frame mutated the mirror", name)
		}
	}
}

// TestReplicaAcceptsRegisteredCodecFrames is the positive control: frames
// from every codec that fit the geometry must apply cleanly.
func TestReplicaAcceptsRegisteredCodecFrames(t *testing.T) {
	sizes := []int{32, 17}
	u := &sparse.Update{Chunks: []sparse.Chunk{
		{Layer: 0, Idx: []int32{0, 5, 31}, Val: []float32{1, -2, 0.5}},
		{Layer: 1, Idx: []int32{16}, Val: []float32{3}},
	}}
	for _, name := range []string{"raw", "sbc"} {
		c, err := sparse.CodecByName(name)
		if err != nil {
			t.Fatalf("codec %s: %v", name, err)
		}
		r := bareReplica(sizes)
		nnz, err := r.applyFrame(c.AppendEncode(nil, u))
		if err != nil {
			t.Errorf("codec %s: valid frame rejected: %v", name, err)
			continue
		}
		if nnz == 0 {
			t.Errorf("codec %s: valid frame applied zero coordinates", name)
		}
		if mirrorIsZero(t, r, sizes) {
			t.Errorf("codec %s: accepted frame left the mirror at zero", name)
		}
	}
}

// FuzzReplicaFrame feeds arbitrary bytes to the replica's subscription
// decoder: applyFrame must never panic, and any frame it rejects must leave
// the mirror bitwise untouched. Seeds cover every codec, the
// reserved codec id 1 of the removed ternary codec, frames that decode but
// violate the model geometry, and raw corruption.
func FuzzReplicaFrame(f *testing.F) {
	sizes := []int{32, 17}
	u := &sparse.Update{Chunks: []sparse.Chunk{
		{Layer: 0, Idx: []int32{0, 5, 31}, Val: []float32{1, -2, 0.5}},
		{Layer: 1, Idx: []int32{2, 16}, Val: []float32{3, -4}},
	}}
	for _, name := range []string{"raw", "sbc"} {
		c, err := sparse.CodecByName(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(c.AppendEncode(nil, u))
		f.Add(c.AppendEncode(nil, &sparse.Update{}))
	}
	// Codec id 1, reserved: a well-formed frame of the removed ternary
	// codec (one chunk, layer 0, scale 2, two indices, signs) and an empty
	// one.
	f.Add(append(frameHeader(1), 0x01, 0x00, 0x00, 0x00, 0x00, 0x40, 0x02, 0x01, 0x04, 0x02))
	f.Add(append(frameHeader(1), 0x00))
	f.Add(rawFrame(&sparse.Update{Chunks: []sparse.Chunk{
		{Layer: 7, Idx: []int32{0}, Val: []float32{1}},
	}}))
	f.Add(rawFrame(&sparse.Update{Chunks: []sparse.Chunk{
		{Layer: 0, Idx: []int32{1 << 28}, Val: []float32{1}},
	}}))
	f.Add(frameHeader(0x7F))
	f.Add(append(frameHeader(sparse.CodecRaw), 0x01, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0, 0, 0, 0, 0))
	f.Add([]byte{})
	corrupt := rawFrame(u)
	corrupt[len(corrupt)/2] ^= 0xFF
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, b []byte) {
		r := bareReplica(sizes)
		nnz, err := r.applyFrame(b)
		if err != nil {
			if nnz != 0 {
				t.Fatalf("rejected frame reported %d coordinates", nnz)
			}
			if !mirrorIsZero(t, r, sizes) {
				t.Fatal("rejected frame mutated the mirror")
			}
		}
	})
}
