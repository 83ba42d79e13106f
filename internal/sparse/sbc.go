package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Sparse Binary Compression backend (Sattler et al., PAPERS.md), codec id 2.
//
// SBC observes that after aggressive sparsification the surviving values
// cluster around two magnitudes — one per sign — so it ships only the index
// set (as Rice/Golomb-coded gaps), one sign bit per coordinate, and the two
// per-sign mean magnitudes. Body layout after the frame header:
//
//	uvarint chunk count
//	per chunk:
//	  uvarint layer
//	  f32  μ+  (magnitude applied to positive coordinates)
//	  f32  μ−  (magnitude applied to negative coordinates, stored positive)
//	  uvarint nnz
//	  u8   Rice parameter k (0..30)
//	  byte-aligned bitstream: nnz Rice-coded index gaps, then nnz sign bits
//	                          (1 = negative)
//
// A Rice-coded gap g is g>>k in unary (ones, then a terminating zero)
// followed by the k low bits. The encoder picks k per chunk from the mean
// gap and raises it until every unary run fits in 48 bits, so pathological
// index distributions cannot produce unbounded runs; the decoder enforces
// the same cap on hostile input.
//
// The codec is deterministic and biased (values collapse to ±μ); on the
// exchange path the projection error from Quantize is folded into the
// residual state, which is what keeps training unbiased over time.
type sbcCodec struct{}

func (sbcCodec) ID() byte     { return CodecSBC }
func (sbcCodec) Name() string { return "sbc" }

// maxUnaryRun bounds a single Rice quotient. The encoder guarantees it by
// raising k; the decoder rejects longer runs as hostile.
const maxUnaryRun = 48

// sbcMagnitude returns the per-sign representative magnitudes the encoder
// stores: the max |value| per sign. For input produced by Quantize every
// positive value already equals μ+ (and every negative −μ−), so max
// recovers the quantized magnitudes bitwise; for other input it is the
// projection AppendEncode is documented to apply.
func sbcMagnitudes(vals []float32) (mp, mn float32) {
	for _, v := range vals {
		if v > mp {
			mp = v
		}
		if -v > mn {
			mn = -v
		}
	}
	return mp, mn
}

// sbcRiceK picks the Rice parameter for a chunk's gap sequence.
func sbcRiceK(idx []int32) uint {
	if len(idx) == 0 {
		return 0
	}
	total := uint64(idx[len(idx)-1]) - uint64(idx[0]) // sum of (gap+1) terms minus first
	mean := total / uint64(len(idx))
	k := uint(bits.Len64(mean))
	if k > 0 {
		k--
	}
	// Cap every quotient: raise k until the largest gap's unary run fits.
	maxGap := uint64(0)
	prev := int32(-1)
	for _, j := range idx {
		if g := uint64(j - prev - 1); g > maxGap {
			maxGap = g
		}
		prev = j
	}
	for k < 30 && maxGap>>k >= maxUnaryRun {
		k++
	}
	return k
}

// bitWriter appends an LSB-first bitstream to a byte slice.
type bitWriter struct {
	buf []byte
	acc uint64
	n   uint
}

// writeBits appends the w low bits of v (w ≤ 32).
func (bw *bitWriter) writeBits(v uint64, w uint) {
	bw.acc |= v << bw.n
	bw.n += w
	for bw.n >= 8 {
		bw.buf = append(bw.buf, byte(bw.acc))
		bw.acc >>= 8
		bw.n -= 8
	}
}

// flush pads the stream to a byte boundary with zero bits.
func (bw *bitWriter) flush() {
	if bw.n > 0 {
		bw.buf = append(bw.buf, byte(bw.acc))
		bw.acc, bw.n = 0, 0
	}
}

// bitReader consumes an LSB-first bitstream, bounds-checked. Bytes are
// pulled lazily, so off after the last read is exactly the byte-aligned
// length of the consumed stream.
type bitReader struct {
	b   []byte
	off int
	acc uint64
	n   uint
}

func (br *bitReader) readBits(w uint) (uint64, error) {
	for br.n < w {
		if br.off >= len(br.b) {
			return 0, fmt.Errorf("sparse: sbc bitstream truncated")
		}
		br.acc |= uint64(br.b[br.off]) << br.n
		br.off++
		br.n += 8
	}
	v := br.acc & (1<<w - 1)
	br.acc >>= w
	br.n -= w
	return v, nil
}

// readUnary counts ones up to the terminating zero, rejecting runs beyond
// maxUnaryRun (the encoder never produces them; a longer run is hostile).
func (br *bitReader) readUnary() (uint64, error) {
	q := uint64(0)
	for {
		bit, err := br.readBits(1)
		if err != nil {
			return 0, err
		}
		if bit == 0 {
			return q, nil
		}
		q++
		if q > maxUnaryRun {
			return 0, fmt.Errorf("sparse: sbc unary run exceeds %d", maxUnaryRun)
		}
	}
}

func (sbcCodec) AppendEncode(dst []byte, u *Update) []byte {
	dst = appendHeader(dst, CodecSBC)
	var tmp [binary.MaxVarintLen64]byte
	dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(len(u.Chunks)))]...)
	for i := range u.Chunks {
		c := &u.Chunks[i]
		if len(c.Idx) != len(c.Val) {
			panic(fmt.Sprintf("sparse: encode chunk layer %d: %d idx vs %d val", c.Layer, len(c.Idx), len(c.Val)))
		}
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(c.Layer))]...)
		mp, mn := sbcMagnitudes(c.Val)
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(mp))
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(mn))
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(len(c.Idx)))]...)
		k := sbcRiceK(c.Idx)
		dst = append(dst, byte(k))
		bw := bitWriter{buf: dst}
		prev := int32(-1)
		for _, j := range c.Idx {
			if j <= prev {
				panic(fmt.Sprintf("sparse: encode chunk layer %d: indices not ascending", c.Layer))
			}
			g := uint64(j - prev - 1)
			prev = j
			q := uint(g >> k)
			for q >= 32 {
				bw.writeBits(1<<32-1, 32)
				q -= 32
			}
			bw.writeBits(1<<q-1, q)
			bw.writeBits(0, 1)
			bw.writeBits(g&(1<<k-1), k)
		}
		for _, v := range c.Val {
			s := uint64(0)
			if math.Signbit(float64(v)) {
				s = 1
			}
			bw.writeBits(s, 1)
		}
		bw.flush()
		dst = bw.buf
	}
	return dst
}

func (sbcCodec) DecodeInto(u *Update, b []byte) error {
	body, err := frameBody(b, CodecSBC)
	if err != nil {
		return err
	}
	off := 0
	nChunks, n := binary.Uvarint(body[off:])
	if n <= 0 {
		return fmt.Errorf("sparse: truncated chunk count")
	}
	off += n
	// Every chunk costs at least 10 bytes (layer, two f32 magnitudes, nnz,
	// Rice k), bounding the plausible chunk count.
	if nChunks > uint64(len(body)-off)/10 {
		return fmt.Errorf("sparse: implausible chunk count %d for %d remaining bytes", nChunks, len(body)-off)
	}
	u.Chunks = u.Chunks[:0]
	for ci := uint64(0); ci < nChunks; ci++ {
		layer, n := binary.Uvarint(body[off:])
		if n <= 0 {
			return fmt.Errorf("sparse: truncated layer id in chunk %d", ci)
		}
		off += n
		if off+8 > len(body) {
			return fmt.Errorf("sparse: truncated magnitudes in chunk %d", ci)
		}
		mp := math.Float32frombits(binary.LittleEndian.Uint32(body[off:]))
		mn := math.Float32frombits(binary.LittleEndian.Uint32(body[off+4:]))
		off += 8
		nnz, n := binary.Uvarint(body[off:])
		if n <= 0 {
			return fmt.Errorf("sparse: truncated nnz in chunk %d", ci)
		}
		off += n
		if off >= len(body) {
			return fmt.Errorf("sparse: truncated Rice parameter in chunk %d", ci)
		}
		k := uint(body[off])
		off++
		if k > 30 {
			return fmt.Errorf("sparse: Rice parameter %d out of range in chunk %d", k, ci)
		}
		// Each entry costs at least 2+k bits (unary terminator, remainder,
		// sign bit); bound nnz by the bits actually remaining before the
		// Idx/Val allocations.
		if nnz > 8*uint64(len(body)-off)/uint64(2+k) {
			return fmt.Errorf("sparse: implausible nnz %d in chunk %d (%d bytes remaining)", nnz, ci, len(body)-off)
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
		br := bitReader{b: body[off:]}
		prev := int64(-1)
		for i := range c.Idx {
			q, err := br.readUnary()
			if err != nil {
				return fmt.Errorf("sparse: chunk %d index %d: %w", ci, i, err)
			}
			rem, err := br.readBits(k)
			if err != nil {
				return fmt.Errorf("sparse: chunk %d index %d: %w", ci, i, err)
			}
			pos := prev + 1 + int64(q<<k|rem)
			if pos > math.MaxInt32 {
				return fmt.Errorf("sparse: index overflow in chunk %d", ci)
			}
			c.Idx[i] = int32(pos)
			prev = pos
		}
		for i := range c.Val {
			s, err := br.readBits(1)
			if err != nil {
				return fmt.Errorf("sparse: chunk %d sign %d: %w", ci, i, err)
			}
			if s != 0 {
				c.Val[i] = -mn
			} else {
				c.Val[i] = mp
			}
		}
		off += br.off
	}
	if off != len(body) {
		return fmt.Errorf("sparse: %d trailing bytes", len(body)-off)
	}
	return nil
}

// Quantize projects src onto SBC's representable set: every positive value
// becomes the chunk's positive mean μ+, every negative −μ−, and exact
// zeros are dropped. The projection error src − dst (one float32
// subtraction per coordinate) lands in errOut so the caller can fold it
// into residual state.
func (sbcCodec) Quantize(dst *Update, src *Update, errOut *Update) {
	dst.Chunks = dst.Chunks[:0]
	errOut.Chunks = errOut.Chunks[:0]
	for i := range src.Chunks {
		c := &src.Chunks[i]
		var sp, sn float64
		var np, nn int
		for _, v := range c.Val {
			if v > 0 {
				sp += float64(v)
				np++
			} else if v < 0 {
				sn -= float64(v)
				nn++
			}
		}
		var mp, mn float32
		if np > 0 {
			mp = float32(sp / float64(np))
		}
		if nn > 0 {
			mn = float32(sn / float64(nn))
		}
		d := dst.NextChunk()
		d.Layer, d.Idx, d.Val = c.Layer, d.Idx[:0], d.Val[:0]
		e := errOut.NextChunk()
		e.Layer, e.Idx, e.Val = c.Layer, e.Idx[:0], e.Val[:0]
		for j, v := range c.Val {
			var q float32
			switch {
			case v > 0:
				q = mp
			case v < 0:
				q = -mn
			}
			if q != 0 {
				d.Idx = append(d.Idx, c.Idx[j])
				d.Val = append(d.Val, q)
			}
			if ev := v - q; ev != 0 {
				e.Idx = append(e.Idx, c.Idx[j])
				e.Val = append(e.Val, ev)
			}
		}
		if len(d.Val) == 0 {
			dst.Chunks = dst.Chunks[:len(dst.Chunks)-1]
		}
		if len(e.Val) == 0 {
			errOut.Chunks = errOut.Chunks[:len(errOut.Chunks)-1]
		}
	}
}
