package tensor

// Im2Col expands a batch of images (NCHW: batch, channels c, height h,
// width w) into one matrix of patch columns for convolution-as-GEMM.
//
// dst is (c*kh*kw) × (batch*oh*ow), row-major: row r = (ch*kh+ki)*kw+kj
// and column q = (b*oh+oy)*ow+ox hold input value
// (b, ch, oy*stride+ki-pad, ox*stride+kj-pad), with zeros outside the
// image. oh and ow are the output spatial dimensions.
func Im2Col(src []float32, batch, c, h, w, kh, kw, stride, pad, oh, ow int, dst []float32) {
	if len(dst) < c*kh*kw*batch*oh*ow {
		panic("tensor: Im2Col dst too small")
	}
	patchRuns(dst, src, batch, c, h, w, kh, kw, stride, pad, oh, ow, func(run, in []float32) {
		if stride == 1 {
			copy(run, in)
			return
		}
		for i := range run {
			run[i] = in[i*stride]
		}
	})
}

// Col2Im is the adjoint of Im2Col: it scatters the patch-column matrix back
// into the batch of images, accumulating overlapping contributions in r
// order. dst must hold batch*c*h*w elements and is zeroed first. src is
// consumed: its entries that correspond to padding are zeroed.
func Col2Im(src []float32, batch, c, h, w, kh, kw, stride, pad, oh, ow int, dst []float32) {
	if len(dst) < batch*c*h*w {
		panic("tensor: Col2Im dst too small")
	}
	clear(dst[:batch*c*h*w])
	patchRuns(src, dst, batch, c, h, w, kh, kw, stride, pad, oh, ow, func(run, out []float32) {
		if stride == 1 {
			out = out[:len(run)]
			for i, v := range run {
				out[i] += v
			}
			return
		}
		for i, v := range run {
			out[i*stride] += v
		}
	})
}

// patchRuns walks the patch matrix mat (laid out as Im2Col documents) and
// the image batch img together, in r order then image order. It zeroes every
// entry of mat that corresponds to padding and hands the rest to move in
// runs, not element by element: move(run, in) gets a run of consecutive mat
// entries and the image from the first entry's position on, the i-th entry
// belonging to in[i*stride]. For a fixed r and image, the in-bounds part of
// one output row is one such run; when the convolution keeps the width at
// stride 1, consecutive rows are contiguous in both mat and img, so the
// whole plane is one run. The few padding entries inside that run are
// zeroed before move (a scatter then adds nothing for them) and again after
// (a gather has overwritten them with the neighbouring pixels).
func patchRuns(mat, img []float32, batch, c, h, w, kh, kw, stride, pad, oh, ow int, move func(run, in []float32)) {
	n := batch * oh * ow
	for ch := 0; ch < c; ch++ {
		for ki := 0; ki < kh; ki++ {
			ylo, yhi := span(h, ki, stride, pad, oh)
			for kj := 0; kj < kw; kj++ {
				row := mat[((ch*kh+ki)*kw+kj)*n:][:n]
				lo, hi := span(w, kj, stride, pad, ow)
				if ylo >= yhi || lo >= hi {
					clear(row)
					continue
				}
				off := (ylo*stride+ki-pad)*w + lo*stride + kj - pad // image index of output (ylo, lo)
				for b := 0; b < batch; b++ {
					plane := row[b*oh*ow:][:oh*ow]
					in := img[(b*c+ch)*h*w:][off : h*w]
					clear(plane[:ylo*ow+lo])
					clear(plane[(yhi-1)*ow+hi:])
					clearGaps(plane, ylo, yhi, lo, hi, ow)
					if stride == 1 && ow == w {
						move(plane[ylo*ow+lo:(yhi-1)*ow+hi], in)
						clearGaps(plane, ylo, yhi, lo, hi, ow)
						continue
					}
					for oy := ylo; oy < yhi; oy++ {
						move(plane[oy*ow+lo:oy*ow+hi], in[(oy-ylo)*stride*w:])
					}
				}
			}
		}
	}
}

// clearGaps zeroes the padding entries between the in-bounds spans [lo,hi)
// of consecutive rows ylo..yhi-1 of an oh×ow output plane.
func clearGaps(plane []float32, ylo, yhi, lo, hi, ow int) {
	if lo == 0 && hi == ow {
		return
	}
	for oy := ylo; oy+1 < yhi; oy++ {
		for q := oy*ow + hi; q < (oy+1)*ow+lo; q++ { // one or two entries: cheaper than a clear call
			plane[q] = 0
		}
	}
}

// span returns the half-open range of output positions o along one axis
// whose input position o*stride+k-pad lies inside [0,size); every other
// output position reads padding.
func span(size, k, stride, pad, outSize int) (lo, hi int) {
	if k < pad {
		lo = (pad - k + stride - 1) / stride
	}
	if last := size - 1 + pad - k; last >= 0 {
		hi = min(outSize, last/stride+1)
	}
	return lo, hi
}

// ConvOutSize returns the output spatial size for input size n, kernel k,
// stride s and padding p.
func ConvOutSize(n, k, s, p int) int {
	return (n+2*p-k)/s + 1
}
