package solver

import (
	"fmt"
	"math"
	"sort"

	"emvia/internal/sparse"
	"emvia/internal/telemetry"
)

// SparseCholesky is a sparse LLᵀ factorization P·A·Pᵀ = L·Lᵀ of a large SPD
// matrix with a fixed sparsity pattern — the power-grid conductance systems
// beyond the dense path's reach. The fill-reducing permutation P and the
// complete symbolic structure (elimination tree, row patterns, column
// pointers, A-scatter slots) are computed once per pattern; after that,
// numeric refactorization and triangular solves are allocation-free and
// touch only the fixed structure.
//
// The matrix must be structurally symmetric (grid stamping always is); the
// symbolic analysis derives the elimination tree from the upper triangle of
// the permuted pattern.
type SparseCholesky struct {
	n          int
	perm, invp []int // perm[k] = original index of pivot k; invp inverts it
	parent     []int // elimination tree over permuted indices; -1 = root

	// L in compressed-sparse-column form over permuted indices. Each column j
	// stores its diagonal at colptr[j] and the below-diagonal rows after it
	// in strictly increasing order — the order up-looking factorization fills
	// them in, and the order the triangular sweeps stream through memory.
	colptr []int
	rowind []int32
	lx     []float64

	// Static refactorization structure. srow[rowptr[k]:rowptr[k+1]] is the
	// pattern of row k of L (ascending, diagonal excluded); ascatter maps the
	// upper-triangle entries of permuted row k of A into the dense workspace:
	// x[atgt[t]] = a.ValueAt(aslot[t]) for t in [aptr[k], aptr[k+1]).
	rowptr []int
	srow   []int32
	aptr   []int
	aslot  []int32
	atgt   []int32

	x    []float64 // factorization scatter workspace; all-zero between calls
	z    []float64 // permuted solve vector
	fill []int     // per-column fill cursor during refactorization
}

// NewSparseCholeskyFromCSR orders a with AMD, runs the symbolic analysis and
// factors the matrix. It returns ErrNotSPD when a pivot is non-positive.
func NewSparseCholeskyFromCSR(a *sparse.CSR) (*SparseCholesky, error) {
	return NewSparseCholeskyOrdered(a, AMDOrder(a))
}

// NewSparseCholeskyOrdered is NewSparseCholeskyFromCSR with a caller-chosen
// elimination order: perm[k] is the original index eliminated k-th. Any true
// permutation is valid; only the fill depends on it.
func NewSparseCholeskyOrdered(a *sparse.CSR, perm []int) (*SparseCholesky, error) {
	n, m := a.Dims()
	if n != m {
		return nil, fmt.Errorf("solver: sparse factor needs a square matrix, got %d×%d", n, m)
	}
	if len(perm) != n {
		return nil, fmt.Errorf("solver: permutation length %d, want %d", len(perm), n)
	}
	c := &SparseCholesky{n: n, perm: append([]int(nil), perm...)}
	c.invp = make([]int, n)
	for i := range c.invp {
		c.invp[i] = -1
	}
	for k, p := range perm {
		if p < 0 || p >= n || c.invp[p] >= 0 {
			return nil, fmt.Errorf("solver: perm is not a permutation of 0..%d", n-1)
		}
		c.invp[p] = k
	}
	c.symbolic(a)
	if err := c.RefactorFromCSR(a); err != nil {
		return nil, err
	}
	return c, nil
}

// symbolic computes the elimination tree, the per-row patterns of L, the CSC
// column structure, and the A-scatter slots — everything the numeric phases
// reuse without allocating.
func (c *SparseCholesky) symbolic(a *sparse.CSR) {
	n := c.n

	// Upper triangle of the permuted pattern, plus the A-value scatter: for
	// each permuted row k, which CSR slots of a land where in the workspace.
	upPtr := make([]int, n+1)
	var upCols []int32
	c.aptr = make([]int, n+1)
	for k := 0; k < n; k++ {
		orig := c.perm[k]
		cols, _ := a.Row(orig)
		if len(cols) > 0 {
			base := a.SlotIndex(orig, int(cols[0]))
			for t, col := range cols {
				j := c.invp[col]
				if j > k {
					continue
				}
				c.aslot = append(c.aslot, int32(base+t))
				c.atgt = append(c.atgt, int32(j))
				if j < k {
					upCols = append(upCols, int32(j))
				}
			}
		}
		upPtr[k+1] = len(upCols)
		c.aptr[k+1] = len(c.aslot)
	}

	// Elimination tree (Liu's algorithm with path compression through an
	// ancestor array): for every upper entry (k, j) walk j's ancestor chain
	// and graft it under k.
	c.parent = make([]int, n)
	anc := make([]int, n)
	for k := 0; k < n; k++ {
		c.parent[k] = -1
		anc[k] = -1
		for t := upPtr[k]; t < upPtr[k+1]; t++ {
			for i := int(upCols[t]); i != -1 && i < k; {
				next := anc[i]
				anc[i] = k
				if next == -1 {
					c.parent[i] = k
				}
				i = next
			}
		}
	}

	// Row patterns: ereach(k) is found by walking each upper entry up the
	// etree until a node already marked for this k. Sorted ascending it is a
	// valid topological order (dependencies only flow small→large), which is
	// what the up-looking numeric loop and the cache both want.
	c.rowptr = make([]int, n+1)
	colcount := make([]int, n)
	stamp := make([]int, n)
	for i := range stamp {
		stamp[i] = -1
	}
	scratch := make([]int, 0, 64)
	for k := 0; k < n; k++ {
		stamp[k] = k
		scratch = scratch[:0]
		for t := upPtr[k]; t < upPtr[k+1]; t++ {
			for i := int(upCols[t]); stamp[i] != k; i = c.parent[i] {
				stamp[i] = k
				scratch = append(scratch, i)
			}
		}
		sort.Ints(scratch)
		for _, j := range scratch {
			c.srow = append(c.srow, int32(j))
			colcount[j]++
		}
		c.rowptr[k+1] = len(c.srow)
	}

	// Column structure of L: diagonal first, then the rows gathered from the
	// row patterns; scanning k ascending fills each column in ascending row
	// order.
	c.colptr = make([]int, n+1)
	for j := 0; j < n; j++ {
		c.colptr[j+1] = c.colptr[j] + 1 + colcount[j]
	}
	nnz := c.colptr[n]
	c.rowind = make([]int32, nnz)
	c.lx = make([]float64, nnz)
	cpos := make([]int, n)
	for j := 0; j < n; j++ {
		c.rowind[c.colptr[j]] = int32(j)
		cpos[j] = c.colptr[j] + 1
	}
	for k := 0; k < n; k++ {
		for t := c.rowptr[k]; t < c.rowptr[k+1]; t++ {
			j := c.srow[t]
			c.rowind[cpos[j]] = int32(k)
			cpos[j]++
		}
	}

	c.x = make([]float64, n)
	c.z = make([]float64, n)
	c.fill = make([]int, n)
}

// N returns the system dimension.
func (c *SparseCholesky) N() int { return c.n }

// NNZ returns the stored entry count of L, diagonal included.
func (c *SparseCholesky) NNZ() int { return len(c.lx) }

// Perm returns the elimination order (perm[k] = original index of pivot k).
// The returned slice is internal; callers must not modify it.
func (c *SparseCholesky) Perm() []int { return c.perm }

// RefactorFromCSR refactors numerically in place from a, which must have the
// sparsity pattern the symbolic analysis was built from (the fixed-pattern
// invariant of the incremental engine guarantees that). It allocates nothing
// and returns ErrNotSPD when a pivot is non-positive, in which case the
// factor content is garbage and must be refactored before further use.
func (c *SparseCholesky) RefactorFromCSR(a *sparse.CSR) error {
	n, m := a.Dims()
	if n != c.n || m != c.n {
		return fmt.Errorf("solver: Refactor dimensions %d×%d, want %d×%d", n, m, c.n, c.n)
	}
	recordSparse(telemetry.SparseFactorizations)
	x, lx, fill := c.x, c.lx, c.fill
	for j := 0; j < n; j++ {
		fill[j] = c.colptr[j] + 1
	}
	for k := 0; k < n; k++ {
		// Scatter the upper entries of permuted row k of A, then eliminate
		// against every column in the row pattern (up-looking): each x[i] is
		// final when its turn comes because the pattern is in ascending
		// order and updates only flow from smaller columns to larger rows.
		for t := c.aptr[k]; t < c.aptr[k+1]; t++ {
			x[c.atgt[t]] = a.ValueAt(int(c.aslot[t]))
		}
		d := x[k]
		x[k] = 0
		for t := c.rowptr[k]; t < c.rowptr[k+1]; t++ {
			i := int(c.srow[t])
			lki := x[i] / lx[c.colptr[i]]
			x[i] = 0
			for p := c.colptr[i] + 1; p < fill[i]; p++ {
				x[c.rowind[p]] -= lx[p] * lki
			}
			d -= lki * lki
			lx[fill[i]] = lki
			fill[i]++
		}
		if d <= 0 || math.IsNaN(d) {
			// Restore the all-zero workspace invariant before bailing.
			for t := c.rowptr[k]; t < c.rowptr[k+1]; t++ {
				x[c.srow[t]] = 0
			}
			return fmt.Errorf("%w: sparse pivot %g at permuted row %d", ErrNotSPD, d, k)
		}
		lx[c.colptr[k]] = math.Sqrt(d)
	}
	return nil
}

// SolveInto overwrites x with A⁻¹·b without allocating. Both slices must
// have the system dimension; they may alias (the sweep runs in a permuted
// scratch vector).
func (c *SparseCholesky) SolveInto(x, b []float64) error {
	if len(b) != c.n || len(x) != c.n {
		return fmt.Errorf("solver: SolveInto lengths %d/%d do not match dimension %d", len(x), len(b), c.n)
	}
	recordSparse(telemetry.SparseSolves)
	n, lx, z := c.n, c.lx, c.z
	for k := 0; k < n; k++ {
		z[k] = b[c.perm[k]]
	}
	for j := 0; j < n; j++ { // forward: L·z' = P·b
		zj := z[j] / lx[c.colptr[j]]
		z[j] = zj
		for p := c.colptr[j] + 1; p < c.colptr[j+1]; p++ {
			z[c.rowind[p]] -= lx[p] * zj
		}
	}
	c.backward(z)
	for k := 0; k < n; k++ {
		x[c.perm[k]] = z[k]
	}
	return nil
}

// backward runs the full backward sweep Lᵀ·z = z' in place.
func (c *SparseCholesky) backward(z []float64) {
	lx := c.lx
	for j := c.n - 1; j >= 0; j-- {
		s := z[j]
		for p := c.colptr[j] + 1; p < c.colptr[j+1]; p++ {
			s -= lx[p] * z[c.rowind[p]]
		}
		z[j] = s / lx[c.colptr[j]]
	}
}

// SolveEdgeInto implements SparseFactor.SolveEdgeInto for the scalar
// backend: the forward sweep runs the columns of the two terminal paths in
// ascending order with the arithmetic of SolveInto, the backward sweep is
// the full one.
func (c *SparseCholesky) SolveEdgeInto(x []float64, fa, fb int, z []float64) error {
	pa, pb, err := checkEdgeArgs(c.invp, x, fa, fb, z)
	if err != nil {
		return err
	}
	recordSparse(telemetry.SparseSolves)
	n, lx := c.n, c.lx
	if pa >= 0 {
		z[pa] = 1
	}
	if pb >= 0 {
		z[pb] = -1
	}
	for i, j := pa, pb; ; {
		k := nextOnPaths(c.parent, &i, &j)
		if k < 0 {
			break
		}
		zk := z[k] / lx[c.colptr[k]]
		z[k] = zk
		for p := c.colptr[k] + 1; p < c.colptr[k+1]; p++ {
			z[c.rowind[p]] -= lx[p] * zk
		}
	}
	c.backward(z)
	for k := 0; k < n; k++ {
		x[c.perm[k]] = z[k]
		z[k] = 0
	}
	return nil
}

// Clone returns a copy with private numeric state (factor values and
// workspaces) sharing the immutable symbolic structure — permutation, etree,
// column pattern and scatter slots. Clones are what make per-worker factors
// cheap: the symbolic arrays dominate memory and are computed once.
func (c *SparseCholesky) Clone() *SparseCholesky {
	d := *c
	d.lx = append([]float64(nil), c.lx...)
	d.x = make([]float64, c.n)
	d.z = make([]float64, c.n)
	d.fill = make([]int, c.n)
	return &d
}
