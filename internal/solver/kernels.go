package solver

import "emvia/internal/par"

// Vector kernels of the CG iteration.
//
// Dot products accumulate over fixed-size blocks whose partial sums are
// written to per-block slots and reduced in block order. The block size is a
// constant of the algorithm: the FEA displacements, the golden figures and
// the persistent stress-cache entries are pinned bit for bit to this
// summation order, so it must not change.
const dotBlock = 1024

// partialsLen returns the number of dot-product partial slots for dimension n.
func partialsLen(n int) int { return par.Blocks(n, dotBlock) }

// dotRange accumulates Σ a[i]·b[i] over [lo,hi) in index order.
func dotRange(a, b []float64, lo, hi int) float64 {
	s := 0.0
	for i := lo; i < hi; i++ {
		s += a[i] * b[i]
	}
	return s
}

// dotDet computes the blocked dot product of a and b using partials as the
// per-block scratch (len(partials) == partialsLen(len(a))). It performs no
// allocation.
func dotDet(a, b, partials []float64) float64 {
	n := len(a)
	for bi := range partials {
		lo := bi * dotBlock
		hi := lo + dotBlock
		if hi > n {
			hi = n
		}
		partials[bi] = dotRange(a, b, lo, hi)
	}
	s := 0.0
	for _, v := range partials {
		s += v
	}
	return s
}

// cgUpdate applies the fused iterate/residual update x += α·p, r −= α·ap.
func cgUpdate(x, r, pvec, ap []float64, alpha float64) {
	r = r[:len(x)]
	pvec = pvec[:len(x)]
	ap = ap[:len(x)]
	for i := range x {
		x[i] += alpha * pvec[i]
		r[i] -= alpha * ap[i]
	}
}

// cgDirection updates the search direction p = z + β·p.
func cgDirection(pvec, z []float64, beta float64) {
	z = z[:len(pvec)]
	for i := range pvec {
		pvec[i] = z[i] + beta*pvec[i]
	}
}
