package sparse

import (
	"encoding/binary"
	"fmt"
)

// Every frame starts with one header (little endian):
//
//	u32  magic "DGS3"
//	u8   codec id
//	codec-specific body
//
// The receiver dispatches on the codec id through the codec table below.
// The header is the same for every codec, so a frame names its own
// encoding and each exchange is decoded on its own (DESIGN.md §14).
const frameMagic = 0x44475333 // "DGS3"

// headerLen is the fixed prefix every frame carries.
const headerLen = 5

// Codec ids. The id is wire protocol: once shipped it must never be reused
// for a different encoding. Id 1 was stochastic ternary, removed because
// error feedback does not make it train (DESIGN.md §7); it stays reserved,
// and a frame carrying it is refused as an unknown codec.
const (
	CodecRaw byte = 0 // sparse COO chunks, exact values
	CodecSBC byte = 2 // sparse binary compression: Rice-coded gaps + per-sign means
)

// Codec is one wire compression backend. AppendEncode and DecodeInto operate
// on full frames (including the header), mirroring the package-level
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
	// ID is the wire codec id carried in the frame header.
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

// codecs is the codec table, indexed by wire id; the reserved id 1 is nil.
var codecs = [...]Codec{CodecRaw: rawCodec{}, CodecSBC: sbcCodec{}}

// CodecByID returns the backend for a wire codec id, or an error naming the
// id so unknown-codec frames fail with a diagnosable message.
func CodecByID(id byte) (Codec, error) {
	if int(id) < len(codecs) && codecs[id] != nil {
		return codecs[id], nil
	}
	return nil, fmt.Errorf("sparse: unknown codec id %d", id)
}

// CodecByName resolves a flag-style codec name ("" means raw).
func CodecByName(name string) (Codec, error) {
	if name == "" {
		name = "raw"
	}
	for _, c := range codecs {
		if c != nil && c.Name() == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("sparse: unknown codec %q (have %v)", name, CodecNames())
}

// Codecs returns the backends in ascending id order.
func Codecs() []Codec {
	var out []Codec
	for _, c := range codecs {
		if c != nil {
			out = append(out, c)
		}
	}
	return out
}

// CodecNames returns the codec names in ascending id order, which is also
// alphabetical.
func CodecNames() []string {
	var out []string
	for _, c := range Codecs() {
		out = append(out, c.Name())
	}
	return out
}

// FrameCodecID reads the codec id from a frame's header.
func FrameCodecID(b []byte) (byte, error) {
	if len(b) < 4 || binary.LittleEndian.Uint32(b) != frameMagic {
		return 0, fmt.Errorf("sparse: bad magic")
	}
	if len(b) < headerLen {
		return 0, fmt.Errorf("sparse: truncated header")
	}
	return b[4], nil
}

// DecodeAnyInto decodes a frame of any codec into u, reusing u's storage:
// it dispatches on the header's codec id. Unknown ids and hostile frames
// error; nothing in this path panics.
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

// appendHeader writes the frame header. Every encoder starts with it.
func appendHeader(dst []byte, id byte) []byte {
	return append(binary.LittleEndian.AppendUint32(dst, frameMagic), id)
}

// frameBody validates the header of a frame routed to codec id and returns
// the body.
func frameBody(b []byte, id byte) ([]byte, error) {
	got, err := FrameCodecID(b)
	if err != nil {
		return nil, err
	}
	if got != id {
		return nil, fmt.Errorf("sparse: frame codec id %d routed to codec %d", got, id)
	}
	return b[headerLen:], nil
}

// rawCodec is codec 0: the package-level Encode/DecodeInto, exact float32
// values.
type rawCodec struct{}

func (rawCodec) ID() byte     { return CodecRaw }
func (rawCodec) Name() string { return "raw" }

func (rawCodec) AppendEncode(dst []byte, u *Update) []byte { return AppendEncode(dst, u) }

func (rawCodec) DecodeInto(u *Update, b []byte) error { return DecodeInto(u, b) }
