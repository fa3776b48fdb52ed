package solver

import (
	"fmt"

	"emvia/internal/sparse"
)

// SparseFactor is the backend-neutral contract of the sparse direct
// factorizations: the scalar up-looking SparseCholesky and the blocked
// parallel SupernodalCholesky. Consumers (the SPICE engine, the Monte-Carlo
// trial loop) program against this interface so the backend can be picked by
// system size without touching the call sites.
//
// Both implementations guarantee the same semantics: fixed sparsity pattern
// after construction, allocation-free refactorization and solves, and
// bit-identical solve results for a given factor regardless of
// backend-internal scheduling.
type SparseFactor interface {
	// N returns the system dimension.
	N() int
	// NNZ returns the stored entry count of L, diagonal included.
	NNZ() int
	// Perm returns the elimination order (internal slice; do not modify).
	Perm() []int
	// RefactorFromCSR refactors numerically in place from a matrix with the
	// pattern of the symbolic analysis.
	RefactorFromCSR(a *sparse.CSR) error
	// SolveInto overwrites x with A⁻¹·b without allocating. It runs in the
	// factor's own scratch, so concurrent calls on one factor race.
	SolveInto(x, b []float64) error
	// SolveEdgeInto overwrites x with A⁻¹·(e_fa − e_fb) in original indices;
	// a negative terminal index means "pinned node" (absent from the edge
	// vector). The result is bit-identical to SolveInto with that
	// right-hand side, but the forward sweep only visits the
	// elimination-tree paths of the two terminals: the forward solution is
	// zero everywhere else. z is caller-owned scratch of length N; it must
	// be all-zero on entry and is left all-zero. The factor itself is only
	// read, so concurrent calls on one shared factor with distinct x and z
	// are safe.
	SolveEdgeInto(x []float64, fa, fb int, z []float64) error
	// CloneFactor returns an independent copy with private numeric state.
	CloneFactor() SparseFactor
}

// checkEdgeArgs validates the arguments of SolveEdgeInto and maps the edge
// terminals to permuted pivots (−1 = absent).
func checkEdgeArgs(invp []int, x []float64, fa, fb int, z []float64) (pa, pb int, err error) {
	n := len(invp)
	if len(x) != n || len(z) != n {
		return -1, -1, fmt.Errorf("solver: SolveEdgeInto lengths %d/%d do not match dimension %d", len(x), len(z), n)
	}
	if fa >= n || fb >= n {
		return -1, -1, fmt.Errorf("solver: SolveEdgeInto terminals %d/%d outside dimension %d", fa, fb, n)
	}
	if fa == fb {
		return -1, -1, nil // e_fa − e_fa = 0
	}
	pa, pb = -1, -1
	if fa >= 0 {
		pa = invp[fa]
	}
	if fb >= 0 {
		pb = invp[fb]
	}
	return pa, pb, nil
}

// nextOnPaths returns the smallest column left on the two ascending
// elimination-tree paths headed by i and j (−1 = path exhausted) and
// advances past it. Walking both paths this way visits their union in
// ascending column order — the order of a full forward sweep.
func nextOnPaths(parent []int, i, j *int) int {
	k := *i
	if k < 0 || (*j >= 0 && *j < k) {
		k = *j
	}
	if k < 0 {
		return -1
	}
	if *i == k {
		*i = parent[k]
	}
	if *j == k {
		*j = parent[k]
	}
	return k
}

// CloneFactor implements SparseFactor for the scalar backend.
func (c *SparseCholesky) CloneFactor() SparseFactor { return c.Clone() }

// CloneFactor implements SparseFactor for the supernodal backend.
func (c *SupernodalCholesky) CloneFactor() SparseFactor { return c.Clone() }

var (
	_ SparseFactor = (*SparseCholesky)(nil)
	_ SparseFactor = (*SupernodalCholesky)(nil)
)
