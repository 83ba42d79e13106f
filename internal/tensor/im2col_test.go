package tensor

import (
	"fmt"
	"math"
	"testing"
)

// naiveIm2Col is the per-element definition Im2Col's doc comment states.
func naiveIm2Col(src []float32, batch, c, h, w, kh, kw, stride, pad, oh, ow int) []float32 {
	n := batch * oh * ow
	dst := make([]float32, c*kh*kw*n)
	for ch := 0; ch < c; ch++ {
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				for b := 0; b < batch; b++ {
					for oy := 0; oy < oh; oy++ {
						for ox := 0; ox < ow; ox++ {
							iy, ix := oy*stride+ki-pad, ox*stride+kj-pad
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								dst[((ch*kh+ki)*kw+kj)*n+(b*oh+oy)*ow+ox] = src[((b*c+ch)*h+iy)*w+ix]
							}
						}
					}
				}
			}
		}
	}
	return dst
}

// naiveCol2Im scatters element by element in the same r order.
func naiveCol2Im(src []float32, batch, c, h, w, kh, kw, stride, pad, oh, ow int) []float32 {
	n := batch * oh * ow
	dst := make([]float32, batch*c*h*w)
	for ch := 0; ch < c; ch++ {
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				for b := 0; b < batch; b++ {
					for oy := 0; oy < oh; oy++ {
						for ox := 0; ox < ow; ox++ {
							iy, ix := oy*stride+ki-pad, ox*stride+kj-pad
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								dst[((b*c+ch)*h+iy)*w+ix] += src[((ch*kh+ki)*kw+kj)*n+(b*oh+oy)*ow+ox]
							}
						}
					}
				}
			}
		}
	}
	return dst
}

// TestIm2ColCol2ImMatchNaive checks the run-moving implementations against
// the per-element definitions, bit for bit, and the adjoint identity
// ⟨Im2Col(x), c⟩ = ⟨x, Col2Im(c)⟩, over every combination of stride, padding
// and kernel size the models use and over non-square inputs small enough
// that spans are empty or a single element.
func TestIm2ColCol2ImMatchNaive(t *testing.T) {
	rng := NewRNG(31)
	const batch, c = 3, 2
	for _, k := range []int{1, 3} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1} {
				for _, hw := range [][2]int{{6, 9}, {9, 6}, {16, 16}, {3, 5}, {1, 4}, {2, 1}} {
					h, w := hw[0], hw[1]
					if h+2*pad < k || w+2*pad < k {
						continue
					}
					oh, ow := ConvOutSize(h, k, stride, pad), ConvOutSize(w, k, stride, pad)
					name := fmt.Sprintf("k%d_s%d_p%d_%dx%d", k, stride, pad, h, w)
					x := randomMat(rng, batch*c*h*w)
					got := randomMat(rng, c*k*k*batch*oh*ow) // garbage: Im2Col must overwrite all of it
					Im2Col(x, batch, c, h, w, k, k, stride, pad, oh, ow, got)
					want := naiveIm2Col(x, batch, c, h, w, k, k, stride, pad, oh, ow)
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("%s: Im2Col[%d] = %v, want %v", name, i, got[i], want[i])
						}
					}

					cm := randomMat(rng, len(want))
					wantX := naiveCol2Im(cm, batch, c, h, w, k, k, stride, pad, oh, ow)
					lhs := Dot(got, cm)
					gotX := randomMat(rng, len(x))
					Col2Im(cm, batch, c, h, w, k, k, stride, pad, oh, ow, gotX) // consumes cm
					for i := range wantX {
						if gotX[i] != wantX[i] {
							t.Fatalf("%s: Col2Im[%d] = %v, want %v", name, i, gotX[i], wantX[i])
						}
					}
					if rhs := Dot(x, gotX); math.Abs(lhs-rhs) > 1e-4*(1+math.Abs(lhs)) {
						t.Fatalf("%s: adjoint mismatch ⟨Im2Col(x),c⟩=%v ⟨x,Col2Im(c)⟩=%v", name, lhs, rhs)
					}
				}
			}
		}
	}
}
