package sparse

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Wire v3 (little endian):
//
//	u32  magic "DGS3"
//	u8   codec id
//	codec-specific body
//
// The v3 header exists so new compression backends can share one protocol
// slot: the receiver dispatches on the codec id through the registry below
// instead of needing a protocol rev per backend. Codec 0 ("raw") is special:
// it keeps the legacy v2 "DGS1" frame bitwise unchanged (no v3 header at
// all), so a v3 process talking codec 0 is indistinguishable from a v2 one —
// that is the whole negotiation story for mixed-version clusters (DESIGN.md
// §14). DecodeAnyInto sniffs the magic and accepts both generations.
const codecMagicV3 = 0x44475333 // "DGS3"

// v3HeaderLen is the fixed prefix every non-raw frame carries.
const v3HeaderLen = 5

// Well-known codec ids. The id is wire protocol: once shipped it must never
// be reused for a different encoding. Id 1 was stochastic ternary, removed
// because error feedback does not make it train (DESIGN.md §7); it stays
// reserved, and a frame carrying it is refused as an unknown codec.
const (
	CodecRaw byte = 0 // legacy DGS1 sparse chunks, exact values
	CodecSBC byte = 2 // sparse binary compression: Rice-coded gaps + per-sign means
)

// Codec is one wire compression backend. AppendEncode and DecodeInto operate
// on full frames (including the magic/header), mirroring the package-level
// AppendEncode/DecodeInto contract: encode appends and returns the extended
// slice, decode reuses u's storage and errors (never panics) on hostile
// input.
//
// Lossy codecs cannot represent arbitrary values; for those, AppendEncode
// silently projects onto the representable set. Callers that need the
// exact encode-decode identity (everything on the DGS exchange path does,
// because Eq. 5 requires both sides to apply identical values) must first
// pass the update through the codec's Quantizer, which reports the
// projection error so it can be folded into a residual.
type Codec interface {
	// ID is the wire codec id carried in the v3 frame header.
	ID() byte
	// Name is the stable flag-friendly name ("raw", "sbc").
	Name() string
	// AppendEncode serialises u as a full frame, appending to dst.
	AppendEncode(dst []byte, u *Update) []byte
	// DecodeInto parses a full frame into u, reusing u's storage.
	DecodeInto(u *Update, b []byte) error
}

// Quantizer is implemented by lossy codecs. Quantize projects src onto the
// codec's representable set: dst receives exactly the values DecodeInto
// would reconstruct after an encode of dst, and errOut receives the single
// float32 subtraction src − dst per src coordinate (so a coordinate dropped
// from dst contributes its full value exactly), skipping exact-zero errors.
// src is never mutated; dst and errOut reuse their backing storage across
// calls. dst + errOut reconstructs src up to one rounding per kept
// coordinate — exact where the quantizer dropped the value. That residual
// error re-enters later exchanges through the fold hooks; the Eq. 5 drain
// invariant does not depend on the reconstruction being bitwise, because
// drain diffs are always shipped raw and recomputed against the server's
// own v_k until the difference is exactly zero.
type Quantizer interface {
	Codec
	Quantize(dst *Update, src *Update, errOut *Update)
}

var (
	codecsByID   [256]Codec
	codecsByName = map[string]Codec{}
)

// RegisterCodec adds a backend to the registry. It panics on id or name
// collisions — registration happens from package init functions, so a
// collision is a build-time wiring bug, not runtime input.
func RegisterCodec(c Codec) {
	id, name := c.ID(), c.Name()
	if codecsByID[id] != nil {
		panic(fmt.Sprintf("sparse: codec id %d registered twice (%s, %s)", id, codecsByID[id].Name(), name))
	}
	if _, ok := codecsByName[name]; ok {
		panic(fmt.Sprintf("sparse: codec name %q registered twice", name))
	}
	codecsByID[id] = c
	codecsByName[name] = c
}

// CodecByID returns the registered backend for a wire codec id, or an error
// naming the id so unknown-codec frames fail with a diagnosable message.
func CodecByID(id byte) (Codec, error) {
	c := codecsByID[id]
	if c == nil {
		return nil, fmt.Errorf("sparse: unknown codec id %d", id)
	}
	return c, nil
}

// CodecByName resolves a flag-style codec name ("" means raw).
func CodecByName(name string) (Codec, error) {
	if name == "" {
		name = "raw"
	}
	c, ok := codecsByName[name]
	if !ok {
		return nil, fmt.Errorf("sparse: unknown codec %q (have %v)", name, CodecNames())
	}
	return c, nil
}

// Codecs returns the registered backends in ascending id order.
func Codecs() []Codec {
	var out []Codec
	for _, c := range codecsByID {
		if c != nil {
			out = append(out, c)
		}
	}
	return out
}

// CodecNames returns the registered codec names, sorted.
func CodecNames() []string {
	var out []string
	for name := range codecsByName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// FrameCodecID inspects a frame's header and reports which codec produced
// it: legacy DGS1 frames are codec 0, DGS3 frames carry the id explicitly.
func FrameCodecID(b []byte) (byte, error) {
	if len(b) < 4 {
		return 0, fmt.Errorf("sparse: frame shorter than magic")
	}
	switch binary.LittleEndian.Uint32(b) {
	case codecMagic:
		return CodecRaw, nil
	case codecMagicV3:
		if len(b) < v3HeaderLen {
			return 0, fmt.Errorf("sparse: truncated v3 header")
		}
		return b[4], nil
	default:
		return 0, fmt.Errorf("sparse: bad magic")
	}
}

// DecodeAnyInto decodes a frame of either wire generation into u, reusing
// u's storage: DGS1 frames go through the raw decoder, DGS3 frames dispatch
// on the embedded codec id. Unknown ids and hostile frames error; nothing
// in this path panics.
func DecodeAnyInto(u *Update, b []byte) error {
	id, err := FrameCodecID(b)
	if err != nil {
		return err
	}
	c, err := CodecByID(id)
	if err != nil {
		return err
	}
	return c.DecodeInto(u, b)
}

// AppendV3Header writes the fixed v3 frame prefix. Codec implementations
// start their AppendEncode with it.
func AppendV3Header(dst []byte, id byte) []byte {
	var hdr [v3HeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[:], codecMagicV3)
	hdr[4] = id
	return append(dst, hdr[:]...)
}

// checkV3Header validates the prefix and returns the body.
func checkV3Header(b []byte, id byte) ([]byte, error) {
	if len(b) < v3HeaderLen || binary.LittleEndian.Uint32(b) != codecMagicV3 {
		return nil, fmt.Errorf("sparse: bad magic")
	}
	if b[4] != id {
		return nil, fmt.Errorf("sparse: frame codec id %d routed to codec %d", b[4], id)
	}
	return b[v3HeaderLen:], nil
}

// rawCodec is codec 0: the legacy DGS1 encoding, unchanged bit for bit so
// raw frames interoperate with v2 peers that predate the registry.
type rawCodec struct{}

func (rawCodec) ID() byte     { return CodecRaw }
func (rawCodec) Name() string { return "raw" }

func (rawCodec) AppendEncode(dst []byte, u *Update) []byte { return AppendEncode(dst, u) }

func (rawCodec) DecodeInto(u *Update, b []byte) error { return DecodeInto(u, b) }

func init() {
	RegisterCodec(rawCodec{})
}
