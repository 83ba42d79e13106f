package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Raw body (codec 0, after the frame header; little endian):
//
//	uvarint chunk count
//	per chunk:
//	  uvarint layer
//	  u8   flags (bit 0: dense — indices are 0..nnz-1 and omitted)
//	  uvarint nnz
//	  nnz × uvarint delta-encoded indices (absent when dense)
//	  nnz × f32 values
//
// Delta encoding keeps index bytes small (ascending order guaranteed), so a
// 99%-sparse update costs roughly 5 bytes per nonzero instead of 8; dense
// chunks (the ASGD baseline's whole-model messages) cost exactly 4 bytes
// per value so baseline traffic accounting is not inflated.
const flagDense = 0x01

// isDenseChunk reports whether the (strictly ascending) index set is exactly
// 0..n-1, which holds iff the first index is 0 and the last is n-1.
func isDenseChunk(c *Chunk) bool {
	n := len(c.Idx)
	return n > 0 && c.Idx[0] == 0 && c.Idx[n-1] == int32(n-1)
}

// Encode serialises an update as a raw frame. The update must satisfy
// Validate (ascending indices); Encode panics on malformed chunks since that
// is a programming error, not input error.
func Encode(u *Update) []byte {
	return AppendEncode(nil, u)
}

// AppendEncode serialises an update, appending to dst and returning the
// extended slice. When dst lacks EncodedLenBound(u) spare bytes it makes
// one allocation of exactly that much room, so passing dst[:0] of a
// retained buffer makes steady-state encoding allocation-free, and a dst
// carrying a prefix (the session envelope's reserved header) gets the
// frame appended without a second copy.
func AppendEncode(dst []byte, u *Update) []byte {
	if size := EncodedLenBound(u); cap(dst)-len(dst) < size {
		grown := make([]byte, len(dst), len(dst)+size)
		copy(grown, dst)
		dst = grown
	}
	// Every append below fits the capacity just ensured.
	dst = appendHeader(dst, CodecRaw)
	dst = binary.AppendUvarint(dst, uint64(len(u.Chunks)))
	for i := range u.Chunks {
		c := &u.Chunks[i]
		if len(c.Idx) != len(c.Val) {
			panic(fmt.Sprintf("sparse: encode chunk layer %d: %d idx vs %d val", c.Layer, len(c.Idx), len(c.Val)))
		}
		dst = binary.AppendUvarint(dst, uint64(c.Layer))
		dense := isDenseChunk(c)
		if dense {
			dst = append(dst, flagDense)
		} else {
			dst = append(dst, 0)
		}
		dst = binary.AppendUvarint(dst, uint64(len(c.Idx)))
		if !dense {
			dst = appendGaps(dst, c)
		}
		for _, v := range c.Val {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
		}
	}
	return dst
}

// appendGaps appends c's delta-encoded indices. Gaps below 128 — every gap
// inside a run of adjacent indices — take the one-byte append without the
// varint loop.
func appendGaps(dst []byte, c *Chunk) []byte {
	prev := int32(-1)
	for _, j := range c.Idx {
		if j <= prev {
			panic(fmt.Sprintf("sparse: encode chunk layer %d: indices not ascending", c.Layer))
		}
		// uint32 wraps like the int32 difference it replaces, so the first
		// gap of an index at math.MaxInt32 is still exact.
		g := uint32(j - prev - 1)
		prev = j
		if g < 0x80 {
			dst = append(dst, byte(g))
		} else {
			dst = binary.AppendUvarint(dst, uint64(g))
		}
	}
	return dst
}

// EncodedLenBound returns an upper bound on len(Encode(u)) computed from
// each chunk's length and last index alone, without walking the indices.
// For n ascending indices whose last is s−1 the n varint gaps sum to s−n,
// and a varint of gap g costs at most 1 + log2(g+1)/7 bytes — a concave
// function of g — so by Jensen the gaps together cost at most
// n + n·log2(s/n)/7 < n + ⌈n·bits.Len(⌊s/n⌋)/7⌉ bytes. u must satisfy
// Validate's ordering; the layer and nnz varints are sized exactly.
func EncodedLenBound(u *Update) int {
	size := headerLen + uvarintLen(uint64(len(u.Chunks)))
	for i := range u.Chunks {
		c := &u.Chunks[i]
		n := len(c.Idx)
		size += uvarintLen(uint64(c.Layer)) + 1 + uvarintLen(uint64(n)) + 4*len(c.Val)
		if n > 0 && !isDenseChunk(c) {
			s := int(c.Idx[n-1]) + 1
			size += n + (n*bits.Len(uint(s/n))+6)/7
		}
	}
	return size
}

// uvarintLen is the number of bytes binary.PutUvarint writes for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// Decode parses a raw frame into a fresh Update.
func Decode(b []byte) (*Update, error) {
	u := &Update{}
	if err := DecodeInto(u, b); err != nil {
		return nil, err
	}
	return u, nil
}

// DecodeInto parses a raw frame into u, reusing u's chunk slice and each
// chunk's index/value storage. Steady-state decoding of same-shaped updates
// allocates nothing. On error u's contents are unspecified. The
// decoded data is valid until the next DecodeInto on the same Update.
func DecodeInto(u *Update, b []byte) error {
	b, err := frameBody(b, CodecRaw)
	if err != nil {
		return err
	}
	nChunks, off := binary.Uvarint(b)
	if off <= 0 {
		return fmt.Errorf("sparse: truncated chunk count")
	}
	// Every chunk costs at least 3 bytes (layer uvarint, flags, nnz
	// uvarint), so the remaining payload bounds the plausible chunk count —
	// a malformed frame cannot coerce a huge Chunks allocation.
	if nChunks > uint64(len(b)-off)/3 {
		return fmt.Errorf("sparse: implausible chunk count %d for %d remaining bytes", nChunks, len(b)-off)
	}
	u.Chunks = u.Chunks[:0]
	for ci := uint64(0); ci < nChunks; ci++ {
		layer, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return fmt.Errorf("sparse: truncated layer id in chunk %d", ci)
		}
		off += n
		if off >= len(b) {
			return fmt.Errorf("sparse: truncated flags in chunk %d", ci)
		}
		flags := b[off]
		off++
		nnz, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return fmt.Errorf("sparse: truncated nnz in chunk %d", ci)
		}
		off += n
		// Bound nnz by the bytes actually left: each value costs 4 bytes and
		// each delta-encoded index at least 1, so a truncated or hostile
		// frame is rejected before the Idx/Val allocations below, not after.
		rem := uint64(len(b) - off)
		perEntry := uint64(5)
		if flags&flagDense != 0 {
			perEntry = 4 // dense chunks omit the index bytes
		}
		if nnz > rem/perEntry {
			return fmt.Errorf("sparse: implausible nnz %d in chunk %d (%d bytes remaining)", nnz, ci, rem)
		}
		c := u.NextChunk()
		c.Layer = int(layer)
		if cap(c.Idx) < int(nnz) {
			c.Idx = make([]int32, nnz)
		}
		c.Idx = c.Idx[:nnz]
		if cap(c.Val) < int(nnz) {
			c.Val = make([]float32, nnz)
		}
		c.Val = c.Val[:nnz]
		if flags&flagDense != 0 {
			if nnz > math.MaxInt32 {
				return fmt.Errorf("sparse: index overflow in chunk %d", ci)
			}
			for i := range c.Idx {
				c.Idx[i] = int32(i)
			}
		} else {
			prev := int64(-1)
			for i := range c.Idx {
				gap, n := binary.Uvarint(b[off:])
				if n <= 0 {
					return fmt.Errorf("sparse: truncated index %d in chunk %d", i, ci)
				}
				off += n
				pos := prev + 1 + int64(gap)
				if pos > math.MaxInt32 {
					return fmt.Errorf("sparse: index overflow in chunk %d", ci)
				}
				c.Idx[i] = int32(pos)
				prev = pos
			}
		}
		if off+4*int(nnz) > len(b) {
			return fmt.Errorf("sparse: truncated values in chunk %d", ci)
		}
		for i := range c.Val {
			c.Val[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[off:]))
			off += 4
		}
	}
	if off != len(b) {
		return fmt.Errorf("sparse: %d trailing bytes", len(b)-off)
	}
	return nil
}

// DenseBytes returns the wire size of a dense (uncompressed) model with the
// given per-layer sizes: 4 bytes per float. Used for compression-ratio and
// traffic accounting against the sparse encoding.
func DenseBytes(layerSizes []int) int {
	n := 0
	for _, s := range layerSizes {
		n += s
	}
	return 4 * n
}
