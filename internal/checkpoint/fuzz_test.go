package checkpoint

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the checkpoint decoder: it must never
// panic or allocate proportionally to a hostile length field, and anything
// it accepts must re-encode to a decodable fixpoint (mirrors the
// sparse.DecodeInto hardening from PR 5).
func FuzzDecode(f *testing.F) {
	valid := Encode(testState(1))
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:12]) // fixed header only
	f.Add(valid[:len(valid)/2])
	corrupted := append([]byte(nil), valid...)
	corrupted[len(corrupted)/3] ^= 0xFF
	f.Add(corrupted)

	// Hostile header: tiny file claiming a huge header length.
	hugeHdr := append([]byte(nil), valid[:12]...)
	binary.LittleEndian.PutUint32(hugeHdr[8:], 0x7FFFFFFF)
	f.Add(hugeHdr)

	// Hostile geometry: header claiming 2^24 workers. The decoder must
	// reject it before allocating per-worker state.
	hugeWorkers := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(hugeWorkers[12+24:], 1<<24)
	refixHeaderCRC(hugeWorkers)
	f.Add(hugeWorkers)

	// Body one word longer than the geometry implies, CRC recomputed.
	hdr, body := split(valid)
	f.Add(frame(hdr, append(append([]byte(nil), body...), 0, 0, 0, 0)))

	// Body CRC missing: the file ends where the body does.
	f.Add(valid[:len(valid)-4])

	// Geometry whose body length overflows int.
	f.Add(overflowingGeometry())

	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := Decode(b)
		if err != nil {
			return
		}
		re := Encode(st)
		st2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encode of accepted input failed to decode: %v", err)
		}
		if !bytes.Equal(re, Encode(st2)) {
			t.Fatal("encoding not a fixpoint")
		}
	})
}

// TestDecodeRejectsImplausibleGeometry pins the hostile-header behaviour
// down as plain tests: small files claiming huge worker counts, layer
// sizes, or body lengths must fail with an error, not a giant make.
func TestDecodeRejectsImplausibleGeometry(t *testing.T) {
	valid := Encode(testState(1))
	hdrLen := int(binary.LittleEndian.Uint32(valid[8:]))
	mk := func(f func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		f(b)
		return b
	}
	frames := map[string][]byte{
		"huge workers": mk(func(b []byte) {
			binary.LittleEndian.PutUint32(b[12+24:], 1<<24)
			refixHeaderCRC(b)
		}),
		"huge shift": mk(func(b []byte) {
			binary.LittleEndian.PutUint32(b[12+28:], 63)
			refixHeaderCRC(b)
		}),
		"huge layer size": mk(func(b []byte) {
			binary.LittleEndian.PutUint64(b[12+40:], 1<<40)
			refixHeaderCRC(b)
		}),
		"body overwritten": mk(func(b []byte) {
			binary.LittleEndian.PutUint32(b[12+hdrLen+4+13:], 1<<29)
		}),
		"body length overflows int": overflowingGeometry(),
	}
	for name, b := range frames {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: hostile frame decoded without error", name)
		}
	}
}

// overflowingGeometry is a small file whose header claims 1024 layers of
// 2^31 elements on 2^20 workers: V alone would take 2^63 + 2^43 bytes, past
// int on every platform.
func overflowingGeometry() []byte {
	le := binary.LittleEndian
	hdr := make([]byte, 24) // incarnation, seq, wall clock
	hdr = le.AppendUint32(hdr, 1<<20)
	hdr = le.AppendUint32(hdr, 6)
	hdr = le.AppendUint32(hdr, 1)
	hdr = le.AppendUint32(hdr, 1024)
	for range 1024 {
		hdr = le.AppendUint64(hdr, 1<<31)
		hdr = le.AppendUint32(hdr, 0)
	}
	return frame(append(hdr, 0), make([]byte, 64))
}
