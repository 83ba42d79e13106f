package tensor

import "sync"

// Blocked, packed GEMM engine shared by Gemm, GemmTA and GemmTB.
//
// All three entry points funnel into one driver: C is computed in kc×nc
// cache blocks whose operands are packed into contiguous panels, and every
// panel pair is consumed by one register-blocked 4×16 micro-kernel
// (AVX2+FMA on capable amd64 hardware, a pure-Go loop elsewhere) that adds
// its tile straight into C. The only thing that differs between the plain,
// transposed-A and transposed-B variants is the packing routine, so the
// three kernels cannot drift apart numerically or in performance character.
//
// The driver runs on the caller's goroutine: the callers are trainer
// workers, one per core, and fanning a product out to further goroutines
// measured slower than computing it in place (DESIGN.md §8). Steady-state
// calls allocate nothing: pack buffers come from a sync.Pool. Each element
// of C accumulates its k-blocks in a fixed order, so results depend only on
// the operands.
const (
	mrGemm = 4   // micro-tile rows
	nrGemm = 16  // micro-tile cols (two 8-float AVX2 lanes)
	kcGemm = 256 // k cache-block: A panel (4 KiB) + B panel (16 KiB) fit L1
	ncGemm = 512 // n cache-block: packed B block (512 KiB) fits L2
	mcGemm = 64  // m cache-block: packed A block (64 KiB) fits L2 beside it

	// smallGemmVolume is the m*n*k cutoff below which the driver's fixed
	// cost (a pooled buffer, two packs, one full 4×16 tile however few of
	// its elements are wanted) exceeds the unpacked baseline loops: measured
	// by BenchmarkGemmCutoff, the baseline wins below 8³ and loses 2–3× at it.
	smallGemmVolume = 8 * 8 * 8
)

// Gemm computes C = alpha*A*B + beta*C for row-major matrices,
// where A is m×k, B is k×n and C is m×n.
func Gemm(alpha float32, a []float32, m, k int, b []float32, n int, beta float32, c []float32) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("tensor: Gemm buffer too small for stated dimensions")
	}
	if m == 0 || n == 0 {
		return
	}
	if m*n*k < smallGemmVolume {
		baselineGemmRows(alpha, a, m, k, b, n, beta, c, 0, m)
		return
	}
	gemmBlocked(alpha, a, k, false, b, n, false, m, n, k, beta, c)
}

// GemmTA computes C = alpha*Aᵀ*B + beta*C where A is k×m (so Aᵀ is m×k),
// B is k×n, C is m×n. Used for weight-gradient computation.
func GemmTA(alpha float32, a []float32, k, m int, b []float32, n int, beta float32, c []float32) {
	if len(a) < k*m || len(b) < k*n || len(c) < m*n {
		panic("tensor: GemmTA buffer too small for stated dimensions")
	}
	if m == 0 || n == 0 {
		return
	}
	if m*n*k < smallGemmVolume {
		BaselineGemmTA(alpha, a, k, m, b, n, beta, c)
		return
	}
	gemmBlocked(alpha, a, m, true, b, n, false, m, n, k, beta, c)
}

// GemmTB computes C = alpha*A*Bᵀ + beta*C where A is m×k, B is n×k
// (so Bᵀ is k×n), C is m×n. Used for input-gradient computation.
func GemmTB(alpha float32, a []float32, m, k int, b []float32, n int, beta float32, c []float32) {
	if len(a) < m*k || len(b) < n*k || len(c) < m*n {
		panic("tensor: GemmTB buffer too small for stated dimensions")
	}
	if m == 0 || n == 0 {
		return
	}
	if m*n*k < smallGemmVolume {
		BaselineGemmTB(alpha, a, m, k, b, n, beta, c)
		return
	}
	gemmBlocked(alpha, a, k, false, b, k, true, m, n, k, beta, c)
}

// gemmTask is one blocked-GEMM invocation: the operands and how to read
// them. It lives on the caller's stack.
type gemmTask struct {
	alpha, beta    float32
	m, n, k        int
	a, b, c        []float32
	lda, ldb       int
	aTrans, bTrans bool
}

// packBuf holds one call's packing scratch plus the staging tile that edge
// tiles (and alpha != 1) accumulate into before being clipped into C.
type packBuf struct {
	a, b []float32
	tile [mrGemm * nrGemm]float32
}

var packBufPool = sync.Pool{New: func() any {
	return &packBuf{
		a: make([]float32, mcGemm*kcGemm),
		b: make([]float32, kcGemm*ncGemm),
	}
}}

// zeroStream stands in for the rows or columns a partial edge panel lacks,
// so the packers gather from a full set of source streams without branching.
var zeroStream [kcGemm]float32

// gemmBlocked runs the blocked driver for one product on the caller's
// goroutine.
func gemmBlocked(alpha float32, a []float32, lda int, aTrans bool, b []float32, ldb int, bTrans bool, m, n, k int, beta float32, c []float32) {
	t := gemmTask{
		alpha: alpha, beta: beta, m: m, n: n, k: k, a: a, b: b, c: c,
		lda: lda, ldb: ldb, aTrans: aTrans, bTrans: bTrans,
	}
	t.run()
}

// run computes C: one β pass, then packed cache blocks fed to the
// micro-kernel. Within a cache block the B micro-panel is the outer loop, so
// it stays in L1 while the A panels stream past it from L2.
func (t *gemmTask) run() {
	c, m, n, k := t.c, t.m, t.n, t.k
	if t.beta == 0 {
		clear(c[:m*n])
	} else if t.beta != 1 {
		Scale(t.beta, c[:m*n])
	}
	if k == 0 || t.alpha == 0 {
		return
	}
	pb := packBufPool.Get().(*packBuf)
	for p0 := 0; p0 < k; p0 += kcGemm {
		kb := min(kcGemm, k-p0)
		for j0 := 0; j0 < n; j0 += ncGemm {
			nb := min(ncGemm, n-j0)
			t.packB(pb.b, p0, kb, j0, nb)
			for i0 := 0; i0 < m; i0 += mcGemm {
				mb := min(mcGemm, m-i0)
				t.packA(pb.a, i0, mb, p0, kb)
				for tj := 0; tj*nrGemm < nb; tj++ {
					bp := pb.b[tj*kb*nrGemm : (tj+1)*kb*nrGemm]
					cols := min(nrGemm, nb-tj*nrGemm)
					for ti := 0; ti*mrGemm < mb; ti++ {
						ap := pb.a[ti*kb*mrGemm : (ti+1)*kb*mrGemm]
						rows := min(mrGemm, mb-ti*mrGemm)
						at := (i0+ti*mrGemm)*n + j0 + tj*nrGemm
						if rows == mrGemm && cols == nrGemm && t.alpha == 1 {
							microKernel(kb, ap, bp, c[at:], n)
							continue
						}
						pb.tile = [mrGemm * nrGemm]float32{}
						microKernel(kb, ap, bp, pb.tile[:], nrGemm)
						for r := 0; r < rows; r++ {
							cr := c[at+r*n : at+r*n+cols]
							for j, v := range pb.tile[r*nrGemm : r*nrGemm+cols] {
								cr[j] += t.alpha * v
							}
						}
					}
				}
			}
		}
	}
	packBufPool.Put(pb)
}

// interleave4 writes dst[p*4+s] = src_s[p] for four equally long source
// streams — one whole A panel. The destination is written front to back and
// each source is read front to back, where a per-source loop would stride
// the destination once per source.
func interleave4(dst []float32, s0, s1, s2, s3 []float32) {
	s1, s2, s3 = s1[:len(s0)], s2[:len(s0)], s3[:len(s0)]
	for p, v := range s0 {
		d := dst[p*4 : p*4+4 : p*4+4]
		d[0], d[1], d[2], d[3] = v, s1[p], s2[p], s3[p]
	}
}

// interleave8 writes dst[p*nr+s] = src_s[p] for eight source streams: half
// of a B panel per call. Eight is what the register file holds; sixteen
// streams at once spill, four at a time measured 1.5× slower.
func interleave8(dst []float32, s [8][]float32) {
	s0, s1, s2, s3, s4, s5, s6, s7 := s[0], s[1][:len(s[0])], s[2][:len(s[0])], s[3][:len(s[0])],
		s[4][:len(s[0])], s[5][:len(s[0])], s[6][:len(s[0])], s[7][:len(s[0])]
	for p, v := range s0 {
		d := dst[p*nrGemm : p*nrGemm+8 : p*nrGemm+8]
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = v, s1[p], s2[p], s3[p], s4[p], s5[p], s6[p], s7[p]
	}
}

// stream returns the kb-long run of src starting at row*ld+p0, or zeros
// when row is past limit (the padding of a partial edge panel).
func stream(src []float32, row, limit, ld, p0, kb int) []float32 {
	if row >= limit {
		return zeroStream[:kb]
	}
	return src[row*ld+p0 : row*ld+p0+kb]
}

// packA packs the A block [i0,i0+mb)×[p0,p0+kb) into mr-row panels, each a
// kb×mr slab laid out p-major so the micro-kernel streams it linearly.
// Partial edge tiles are zero-padded to the full micro-tile.
func (t *gemmTask) packA(dst []float32, i0, mb, p0, kb int) {
	for ti := 0; ti*mrGemm < mb; ti++ {
		panel := dst[ti*kb*mrGemm : (ti+1)*kb*mrGemm]
		i := i0 + ti*mrGemm
		if !t.aTrans {
			// A'[i,p] = a[i*lda + p]: each row is one source stream along p.
			interleave4(panel,
				stream(t.a, i, i0+mb, t.lda, p0, kb), stream(t.a, i+1, i0+mb, t.lda, p0, kb),
				stream(t.a, i+2, i0+mb, t.lda, p0, kb), stream(t.a, i+3, i0+mb, t.lda, p0, kb))
			continue
		}
		// A'[i,p] = a[p*lda + i]: for each p, mr consecutive i are contiguous.
		rows := min(mrGemm, i0+mb-i)
		for p := 0; p < kb; p++ {
			d := panel[p*mrGemm : p*mrGemm+mrGemm]
			src := t.a[(p0+p)*t.lda+i:]
			if rows == mrGemm {
				*(*[mrGemm]float32)(d) = *(*[mrGemm]float32)(src)
				continue
			}
			clear(d[copy(d, src[:rows]):])
		}
	}
}

// packB packs the B block [p0,p0+kb)×[j0,j0+nb) into nr-column panels, each
// a kb×nr slab laid out p-major. Partial edge tiles are zero-padded.
func (t *gemmTask) packB(dst []float32, p0, kb, j0, nb int) {
	for tj := 0; tj*nrGemm < nb; tj++ {
		panel := dst[tj*kb*nrGemm : (tj+1)*kb*nrGemm]
		j := j0 + tj*nrGemm
		if t.bTrans {
			// B'[p,j] = b[j*ldb + p]: each column is one source stream along
			// p, gathered eight at a time.
			for g := 0; g < nrGemm; g += 8 {
				var s [8][]float32
				for i := range s {
					s[i] = stream(t.b, j+g+i, j0+nb, t.ldb, p0, kb)
				}
				interleave8(panel[g:], s)
			}
			continue
		}
		// B'[p,j] = b[p*ldb + j]: nr consecutive j are contiguous.
		cols := min(nrGemm, j0+nb-j)
		for p := 0; p < kb; p++ {
			d := panel[p*nrGemm : p*nrGemm+nrGemm]
			src := t.b[(p0+p)*t.ldb+j:]
			if cols == nrGemm {
				*(*[nrGemm]float32)(d) = *(*[nrGemm]float32)(src)
				continue
			}
			clear(d[copy(d, src[:cols]):])
		}
	}
}

// microKernel adds the mr×nr tile product of two packed panels into the
// four rows c[r*ldc : r*ldc+nr], dispatching to the SIMD kernel when
// available. Each element is summed over the panel depth in registers
// (from zero, in p order) and then added to c once, so a tile written
// straight into C and one staged through a zeroed scratch tile and added
// afterwards are the same floating-point computation.
func microKernel(kb int, ap, bp, c []float32, ldc int) {
	_ = c[(mrGemm-1)*ldc+nrGemm-1]
	if useSIMDKernel {
		microKernel4x16AVX(kb, &ap[0], &bp[0], &c[0], ldc)
		return
	}
	var acc [mrGemm * nrGemm]float32
	for p := 0; p < kb; p++ {
		av := ap[p*mrGemm : p*mrGemm+mrGemm : p*mrGemm+mrGemm]
		bv := bp[p*nrGemm : p*nrGemm+nrGemm : p*nrGemm+nrGemm]
		for r := 0; r < mrGemm; r++ {
			arv := av[r]
			o := acc[r*nrGemm : r*nrGemm+nrGemm]
			for j := range o {
				o[j] += arv * bv[j]
			}
		}
	}
	for r := 0; r < mrGemm; r++ {
		cr := c[r*ldc : r*ldc+nrGemm]
		for j, v := range acc[r*nrGemm : r*nrGemm+nrGemm] {
			cr[j] += v
		}
	}
}
