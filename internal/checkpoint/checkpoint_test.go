package checkpoint

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// testState builds a deterministic two-shard state with the given geometry.
func testState(seed uint64) *State {
	const shift = 3 // 8-element blocks keep the fixtures small
	st := &State{
		Incarnation: 0xfeed + seed,
		Seq:         7 + seed,
		WallNano:    1234567890,
		NumWorkers:  2,
		BlockShift:  shift,
	}
	// Shard 0 owns layers 0 and 2; shard 1 owns layer 1.
	layout := []struct {
		layers []int
		sizes  []int
	}{
		{[]int{0, 2}, []int{19, 8}},
		{[]int{1}, []int{33}},
	}
	x := seed*2654435761 + 12345
	next := func() uint64 { x = x*6364136223846793005 + 1442695040888963407; return x }
	for sh, lo := range layout {
		s := ShardState{
			T:         100*uint64(sh+1) + seed,
			CapturedT: 10 * uint64(sh+1),
			Layers:    lo.layers,
			Sizes:     lo.sizes,
		}
		for _, sz := range lo.sizes {
			m := make([]float32, sz)
			for i := range m {
				m[i] = float32(next()%1000) / 31
			}
			s.M = append(s.M, m)
			nb := numBlocks(sz, shift)
			mv := make([]uint64, nb)
			for i := range mv {
				mv[i] = next() % 50
			}
			s.MVer = append(s.MVer, mv)
		}
		for k := 0; k < st.NumWorkers; k++ {
			w := WorkerState{Prev: next() % 90, Epoch: uint64(k)}
			for _, sz := range lo.sizes {
				v := make([]float32, sz)
				for i := range v {
					v[i] = float32(next()%1000) / 17
				}
				w.V = append(w.V, v)
			}
			s.Workers = append(s.Workers, w)
		}
		st.Shards = append(st.Shards, s)
	}
	return st
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	st := testState(1)
	enc := Encode(st)
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatal("decoded state differs from original")
	}
}

func TestWriterAtomicAndLoadLatest(t *testing.T) {
	dir := t.TempDir()
	w := &Writer{Dir: dir, Keep: 2}
	var last *State
	for i := uint64(0); i < 4; i++ {
		st := testState(i)
		st.Seq = i
		if _, err := w.Write(st); err != nil {
			t.Fatal(err)
		}
		last = st
	}
	// Retention: only Keep newest files remain, and no temp litter.
	names := listCheckpoints(dir)
	if len(names) != 2 {
		t.Fatalf("retained %d files %v, want 2", len(names), names)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.Contains(e.Name(), "tmp") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
	got, path, err := LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != FileName(3) {
		t.Fatalf("latest path %s, want %s", path, FileName(3))
	}
	if !reflect.DeepEqual(last, got) {
		t.Fatal("latest checkpoint does not round-trip")
	}
}

// A corrupt latest file (torn write, bit rot) must fall back to the
// previous checkpoint rather than failing recovery outright.
func TestLoadLatestSkipsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	w := &Writer{Dir: dir}
	good := testState(1)
	good.Seq = 1
	if _, err := w.Write(good); err != nil {
		t.Fatal(err)
	}
	bad := testState(2)
	bad.Seq = 2
	path, err := w.Write(bad)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the newest file.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	got, gotPath, err := LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(gotPath) != FileName(1) {
		t.Fatalf("loaded %s, want fallback %s", gotPath, FileName(1))
	}
	if !reflect.DeepEqual(good, got) {
		t.Fatal("fallback checkpoint does not match")
	}
}

func TestLoadLatestEmptyAndMissingDir(t *testing.T) {
	if _, _, err := LoadLatest(t.TempDir()); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: got %v, want ErrNoCheckpoint", err)
	}
	if _, _, err := LoadLatest(filepath.Join(t.TempDir(), "nope")); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("missing dir: got %v, want ErrNoCheckpoint", err)
	}
}

// mutate returns a copy of enc with f applied.
func mutate(enc []byte, f func(b []byte)) []byte {
	b := append([]byte(nil), enc...)
	f(b)
	return b
}

// refix recomputes the header CRC after a header mutation so the decoder
// reaches the geometry checks rather than stopping at the CRC.
func refixHeaderCRC(b []byte) {
	hdrLen := int(binary.LittleEndian.Uint32(b[8:]))
	binary.LittleEndian.PutUint32(b[12+hdrLen:], crc32.Checksum(b[12:12+hdrLen], crcTable))
}

// TestDecodeHostileInputs drives Decode with systematically corrupted
// files; every case must fail cleanly (no panic, no giant allocation).
func TestDecodeHostileInputs(t *testing.T) {
	enc := Encode(testState(1))
	cases := map[string][]byte{
		"empty":         nil,
		"short":         enc[:8],
		"bad magic":     mutate(enc, func(b []byte) { b[0] ^= 0xff }),
		"bad version":   mutate(enc, func(b []byte) { binary.LittleEndian.PutUint32(b[4:], 99) }),
		"huge hdr len":  mutate(enc, func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 1<<30) }),
		"hdr crc":       mutate(enc, func(b []byte) { b[14] ^= 1 }),
		"truncated mid": enc[:len(enc)/2],
		"truncated end": enc[:len(enc)-5],
		"trailing junk": append(append([]byte(nil), enc...), 1, 2, 3),
		"body crc":      mutate(enc, func(b []byte) { b[len(b)-30] ^= 1 }),
		"huge workers": mutate(enc, func(b []byte) {
			binary.LittleEndian.PutUint32(b[12+24:], 1<<24) // NumWorkers field
			refixHeaderCRC(b)
		}),
		"zero shift": mutate(enc, func(b []byte) {
			binary.LittleEndian.PutUint32(b[12+28:], 0)
			refixHeaderCRC(b)
		}),
		"huge layer size": mutate(enc, func(b []byte) {
			// First layer-table entry starts at header offset 40.
			binary.LittleEndian.PutUint64(b[12+40:], 1<<40)
			refixHeaderCRC(b)
		}),
		"layer shard out of range": mutate(enc, func(b []byte) {
			binary.LittleEndian.PutUint32(b[12+48:], 77)
			refixHeaderCRC(b)
		}),
	}
	for name, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
		}
	}
}

// frame wraps a header and a body in the file layout, CRCs included, so a
// test can hand Decode any geometry and any body length.
func frame(hdr, body []byte) []byte { return frameVersion(formatVersion, hdr, body) }

// frameVersion is frame under the given format version.
func frameVersion(version uint32, hdr, body []byte) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, fileMagic)
	b = le.AppendUint32(b, version)
	b = le.AppendUint32(b, uint32(len(hdr)))
	b = append(b, hdr...)
	b = le.AppendUint32(b, crc32.Checksum(hdr, crcTable))
	b = append(b, body...)
	return le.AppendUint32(b, crc32.Checksum(body, crcTable))
}

// split returns an encoded file's header and body.
func split(enc []byte) (hdr, body []byte) {
	hdrLen := int(binary.LittleEndian.Uint32(enc[8:]))
	return enc[12 : 12+hdrLen], enc[16+hdrLen : len(enc)-4]
}

// TestDecodeTruncatedBody: every proper prefix of a valid file fails,
// whether the cut falls in the header, the body or the body CRC.
func TestDecodeTruncatedBody(t *testing.T) {
	enc := Encode(testState(1))
	for n := 0; n < len(enc); n++ {
		if _, err := Decode(enc[:n]); err == nil {
			t.Fatalf("decode accepted a file truncated to %d of %d bytes", n, len(enc))
		}
	}
}

// TestDecodeBodyLength: the body must be exactly as long as the header's
// geometry implies. A body a byte or a word shorter or longer fails even
// with its CRC recomputed, before anything is allocated for it.
func TestDecodeBodyLength(t *testing.T) {
	hdr, body := split(Encode(testState(1)))
	if _, err := Decode(frame(hdr, body)); err != nil {
		t.Fatalf("reframed valid file: %v", err)
	}
	for _, delta := range []int{-8, -1, 1, 8} {
		b := append([]byte(nil), body...)
		if delta < 0 {
			b = b[:len(b)+delta]
		} else {
			b = append(b, make([]byte, delta)...)
		}
		_, err := Decode(frame(hdr, b))
		if err == nil || !strings.Contains(err.Error(), "implies a body") {
			t.Errorf("body %+d bytes: got %v, want a body-length error", delta, err)
		}
	}
}

// TestDecodeRefusesVersion2: version 2 ended the header with a
// length-prefixed codec-policy name. A file in that layout, intact CRCs
// included, is refused with ErrFormatVersion naming version 2, not read as
// a version-3 header with trailing bytes.
func TestDecodeRefusesVersion2(t *testing.T) {
	hdr, body := split(Encode(testState(1)))
	v2 := append(append([]byte(nil), hdr...), byte(len("mirror")))
	v2 = append(v2, "mirror"...)
	_, err := Decode(frameVersion(2, v2, body))
	if !errors.Is(err, ErrFormatVersion) || !strings.Contains(err.Error(), "version 2 ") {
		t.Fatalf("Decode of a version-2 file = %v, want ErrFormatVersion naming version 2", err)
	}
	if _, err := Decode(frame(v2, body)); err == nil {
		t.Fatal("a version-3 header followed by the old codec extension decoded")
	}
}

// A file written in another format version is refused rather than skipped:
// LoadLatest must not fall back past it to an older file (or to no file,
// after which a server would start from θ0 and prune what it could not
// read).
func TestLoadLatestRefusesOtherVersion(t *testing.T) {
	dir := t.TempDir()
	w := &Writer{Dir: dir}
	old := testState(1)
	old.Seq = 1
	if _, err := w.Write(old); err != nil {
		t.Fatal(err)
	}
	newer := testState(2)
	newer.Seq = 2
	path, err := w.Write(newer)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(b[4:], 99)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	st, gotPath, err := LoadLatest(dir)
	if !errors.Is(err, ErrFormatVersion) || !strings.Contains(err.Error(), "99") {
		t.Fatalf("LoadLatest = (%v, %s, %v), want ErrFormatVersion naming version 99", st != nil, gotPath, err)
	}
	if gotPath != path {
		t.Fatalf("error names %s, want the unreadable %s", gotPath, path)
	}
}

func TestWriterSurvivesStaleTemp(t *testing.T) {
	dir := t.TempDir()
	// Simulate a crash mid-write: a stale temp file already in the dir.
	if err := os.WriteFile(filepath.Join(dir, filePrefix+"tmp-stale"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	w := &Writer{Dir: dir}
	st := testState(3)
	if _, err := w.Write(st); err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatal("round-trip with stale temp present failed")
	}
}
