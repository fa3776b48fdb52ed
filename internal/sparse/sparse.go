// Package sparse provides the compressed sparse row (CSR) matrix type and a
// coordinate-format builder used by the finite-element and circuit solvers.
//
// Go has no mature sparse linear-algebra ecosystem, so this package
// implements the small set of operations the repository needs: duplicate-
// summing triplet assembly, matrix–vector products, transpose, diagonal
// extraction and row scaling. Matrices are real and row-major; the symmetric
// positive-definite systems produced by FEM stiffness assembly and power-grid
// nodal analysis store both triangles explicitly.
package sparse

import (
	"fmt"
	"math"
	"slices"
)

// Triplet accumulates matrix entries in coordinate (COO) form. Duplicate
// entries at the same (row, col) are summed when converting to CSR, which is
// exactly the semantics of finite-element and nodal-analysis "stamping".
type Triplet struct {
	nrows, ncols int
	rows         []int
	cols         []int32
	vals         []float64
}

// NewTriplet returns an empty r×c triplet accumulator with capacity for nnz
// entries (nnz may be 0 if unknown).
func NewTriplet(r, c, nnz int) *Triplet {
	checkDims(r, c)
	return &Triplet{
		nrows: r,
		ncols: c,
		rows:  make([]int, 0, nnz),
		cols:  make([]int32, 0, nnz),
		vals:  make([]float64, 0, nnz),
	}
}

// Dims returns the matrix dimensions.
func (t *Triplet) Dims() (r, c int) { return t.nrows, t.ncols }

// NNZ returns the number of accumulated (possibly duplicate) entries.
func (t *Triplet) NNZ() int { return len(t.vals) }

// Add accumulates v at position (i, j). Adding zero is a no-op so callers can
// stamp without branching.
func (t *Triplet) Add(i, j int, v float64) {
	if i < 0 || i >= t.nrows || j < 0 || j >= t.ncols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range %d×%d", i, j, t.nrows, t.ncols))
	}
	if v == 0 {
		return
	}
	t.rows = append(t.rows, i)
	t.cols = append(t.cols, int32(j))
	t.vals = append(t.vals, v)
}

// ToCSR compresses the triplets into CSR form, summing duplicates. The
// triplet accumulator remains valid and may keep accumulating afterwards.
func (t *Triplet) ToCSR() *CSR {
	// Count entries per row, then bucket-sort into row order.
	counts := make([]int, t.nrows+1)
	for _, r := range t.rows {
		counts[r+1]++
	}
	for i := 0; i < t.nrows; i++ {
		counts[i+1] += counts[i]
	}
	ptr := make([]int, t.nrows+1)
	copy(ptr, counts)
	cols := make([]int32, len(t.vals))
	vals := make([]float64, len(t.vals))
	next := make([]int, t.nrows)
	for i := range next {
		next[i] = ptr[i]
	}
	for k, r := range t.rows {
		p := next[r]
		cols[p] = t.cols[k]
		vals[p] = t.vals[k]
		next[r]++
	}
	// Sort each row by column and merge duplicates in place.
	outPtr := make([]int, t.nrows+1)
	w := 0
	for i := 0; i < t.nrows; i++ {
		lo, hi := ptr[i], ptr[i+1]
		sortRow(cols[lo:hi], vals[lo:hi])
		outPtr[i] = w
		for k := lo; k < hi; k++ {
			if w > outPtr[i] && cols[w-1] == cols[k] {
				vals[w-1] += vals[k]
				continue
			}
			cols[w] = cols[k]
			vals[w] = vals[k]
			w++
		}
	}
	outPtr[t.nrows] = w
	return &CSR{
		nrows: t.nrows,
		ncols: t.ncols,
		ptr:   outPtr,
		cols:  cols[:w:w],
		vals:  vals[:w:w],
	}
}

// sortRow sorts one row's (column, value) pairs by column with an in-place
// insertion sort. Stamped rows are short (a handful of entries for nodal
// analysis, tens for FEM), where insertion sort beats the generic sort and —
// unlike sort.Sort with an interface receiver — allocates nothing, which
// matters because ToCSR runs once per matrix row.
func sortRow(cols []int32, vals []float64) {
	for i := 1; i < len(cols); i++ {
		c, v := cols[i], vals[i]
		j := i - 1
		for j >= 0 && cols[j] > c {
			cols[j+1] = cols[j]
			vals[j+1] = vals[j]
			j--
		}
		cols[j+1] = c
		vals[j+1] = v
	}
}

// CSR is a compressed sparse row matrix with column indices sorted within
// each row and no duplicate entries.
//
// Column indices are int32: the products and triangular sweeps over a CSR
// stream one index and one value per nonzero and are memory-bound, so 12
// bytes per nonzero instead of 16 makes them faster. Dimensions are
// therefore limited to math.MaxInt32.
type CSR struct {
	nrows, ncols int
	ptr          []int
	cols         []int32
	vals         []float64
}

// checkDims panics on dimensions a CSR cannot index with int32 columns.
func checkDims(r, c int) {
	if r < 0 || c < 0 || c > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: invalid dimensions %d×%d", r, c))
	}
}

// NewCSR builds a CSR matrix directly from raw components. The slices are
// used without copying; callers must not mutate them afterwards. It validates
// structural invariants and panics on malformed input, since raw construction
// is only used by trusted in-package code paths and tests.
func NewCSR(r, c int, ptr []int, cols []int32, vals []float64) *CSR {
	checkDims(r, c)
	if len(ptr) != r+1 || ptr[0] != 0 || ptr[r] != len(cols) || len(cols) != len(vals) {
		panic("sparse: inconsistent CSR components")
	}
	for i := 0; i < r; i++ {
		if ptr[i] > ptr[i+1] {
			panic("sparse: non-monotone row pointer")
		}
		for k := ptr[i]; k < ptr[i+1]; k++ {
			if cols[k] < 0 || int(cols[k]) >= c {
				panic("sparse: column index out of range")
			}
			if k > ptr[i] && cols[k] <= cols[k-1] {
				panic("sparse: unsorted or duplicate column indices")
			}
		}
	}
	return &CSR{nrows: r, ncols: c, ptr: ptr, cols: cols, vals: vals}
}

// Dims returns the matrix dimensions.
func (m *CSR) Dims() (r, c int) { return m.nrows, m.ncols }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.vals) }

// Row returns views of the column indices and values of row i. The returned
// slices alias internal storage and must not be mutated structurally.
func (m *CSR) Row(i int) (cols []int32, vals []float64) {
	return m.cols[m.ptr[i]:m.ptr[i+1]], m.vals[m.ptr[i]:m.ptr[i+1]]
}

// At returns the entry at (i, j), zero if not stored.
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range %d×%d", i, j, m.nrows, m.ncols))
	}
	if k := m.find(i, j); k >= 0 {
		return m.vals[k]
	}
	return 0
}

// SlotIndex returns the storage slot of entry (i, j), or -1 when the entry is
// not part of the sparsity pattern. Slots are stable for the lifetime of the
// matrix, so callers that repeatedly update the same entries (nodal-analysis
// stamping with a fixed pattern) can look slots up once and then use AddAt /
// SetAt for O(1) in-place value edits with no reassembly.
func (m *CSR) SlotIndex(i, j int) int {
	if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range %d×%d", i, j, m.nrows, m.ncols))
	}
	return m.find(i, j)
}

// find binary-searches row i for column j and returns its slot, or -1.
func (m *CSR) find(i, j int) int {
	lo, hi := m.ptr[i], m.ptr[i+1]
	if k, ok := slices.BinarySearch(m.cols[lo:hi], int32(j)); ok {
		return lo + k
	}
	return -1
}

// AddAt adds delta to the value stored in slot (from SlotIndex) in place.
func (m *CSR) AddAt(slot int, delta float64) { m.vals[slot] += delta }

// SetAt overwrites the value stored in slot (from SlotIndex) in place.
func (m *CSR) SetAt(slot int, v float64) { m.vals[slot] = v }

// ValueAt returns the value stored in slot (from SlotIndex).
func (m *CSR) ValueAt(slot int) float64 { return m.vals[slot] }

// ZeroValues sets every stored value to zero, keeping the sparsity pattern.
// Combined with SlotIndex/AddAt it supports rebuilding the numeric content of
// a fixed-pattern matrix without any allocation.
func (m *CSR) ZeroValues() {
	for i := range m.vals {
		m.vals[i] = 0
	}
}

// CopyValues copies the stored values into dst, which must have length NNZ.
// Together with SetValues it lets callers snapshot and restore the numeric
// content of a fixed-pattern matrix without reassembly.
func (m *CSR) CopyValues(dst []float64) {
	if len(dst) != len(m.vals) {
		panic(fmt.Sprintf("sparse: CopyValues length %d, want %d", len(dst), len(m.vals)))
	}
	copy(dst, m.vals)
}

// SetValues overwrites the stored values from src, which must have length
// NNZ, keeping the sparsity pattern.
func (m *CSR) SetValues(src []float64) {
	if len(src) != len(m.vals) {
		panic(fmt.Sprintf("sparse: SetValues length %d, want %d", len(src), len(m.vals)))
	}
	copy(m.vals, src)
}

// MulVec computes y = A·x into a fresh slice.
func (m *CSR) MulVec(x []float64) []float64 {
	y := make([]float64, m.nrows)
	m.MulVecTo(y, x)
	return y
}

// MulVecTo computes y = A·x, overwriting y. len(x) must equal the column
// count and len(y) the row count.
func (m *CSR) MulVecTo(y, x []float64) {
	if len(x) != m.ncols || len(y) != m.nrows {
		panic(fmt.Sprintf("sparse: MulVecTo dimension mismatch: A is %d×%d, len(x)=%d, len(y)=%d",
			m.nrows, m.ncols, len(x), len(y)))
	}
	ptr := m.ptr[:len(y)+1]
	for i := range y {
		lo, hi := ptr[i], ptr[i+1]
		y[i] = rowDot(m.cols[lo:hi], m.vals[lo:hi], x)
	}
}

// rowDot returns Σ vals[k]·x[cols[k]] over one sparse row, accumulated in
// two interleaved partial sums (breaking the serial dependency chain)
// combined as even+odd at the end. Operating on row slices lets the compiler
// drop the bounds checks on cols and vals; only the gather from x is checked.
// The summation order is part of the contract: the FEA results are pinned
// bit for bit to it.
func rowDot(cols []int32, vals []float64, x []float64) float64 {
	vals = vals[:len(cols)]
	s0, s1 := 0.0, 0.0
	k := 0
	for ; k+1 < len(cols); k += 2 {
		s0 += vals[k] * x[cols[k]]
		s1 += vals[k+1] * x[cols[k+1]]
	}
	if k < len(cols) {
		s0 += vals[k] * x[cols[k]]
	}
	return s0 + s1
}

// Diagonal returns a fresh slice with the main diagonal (zero where absent).
func (m *CSR) Diagonal() []float64 {
	n := m.nrows
	if m.ncols < n {
		n = m.ncols
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := m.ptr[i]; k < m.ptr[i+1]; k++ {
			if int(m.cols[k]) == i {
				d[i] = m.vals[k]
				break
			}
		}
	}
	return d
}

// Transpose returns Aᵀ as a new CSR matrix.
func (m *CSR) Transpose() *CSR {
	ptr := make([]int, m.ncols+1)
	for _, c := range m.cols {
		ptr[c+1]++
	}
	for i := 0; i < m.ncols; i++ {
		ptr[i+1] += ptr[i]
	}
	cols := make([]int32, len(m.vals))
	vals := make([]float64, len(m.vals))
	next := make([]int, m.ncols)
	copy(next, ptr[:m.ncols])
	for i := 0; i < m.nrows; i++ {
		for k := m.ptr[i]; k < m.ptr[i+1]; k++ {
			c := m.cols[k]
			p := next[c]
			cols[p] = int32(i)
			vals[p] = m.vals[k]
			next[c]++
		}
	}
	return &CSR{nrows: m.ncols, ncols: m.nrows, ptr: ptr, cols: cols, vals: vals}
}

// IsSymmetric reports whether the matrix equals its transpose to within tol
// in absolute value, entry by entry. Intended for test assertions on
// stiffness and conductance matrices.
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.nrows != m.ncols {
		return false
	}
	t := m.Transpose()
	if len(t.vals) != len(m.vals) {
		return false
	}
	for i := 0; i < m.nrows; i++ {
		if m.ptr[i] != t.ptr[i] {
			return false
		}
		for k := m.ptr[i]; k < m.ptr[i+1]; k++ {
			if m.cols[k] != t.cols[k] {
				return false
			}
			d := m.vals[k] - t.vals[k]
			if d < -tol || d > tol {
				return false
			}
		}
	}
	return true
}

// Scale multiplies every stored entry by s in place.
func (m *CSR) Scale(s float64) {
	for i := range m.vals {
		m.vals[i] *= s
	}
}

// Clone returns a deep copy of the matrix.
func (m *CSR) Clone() *CSR {
	ptr := make([]int, len(m.ptr))
	copy(ptr, m.ptr)
	cols := make([]int32, len(m.cols))
	copy(cols, m.cols)
	vals := make([]float64, len(m.vals))
	copy(vals, m.vals)
	return &CSR{nrows: m.nrows, ncols: m.ncols, ptr: ptr, cols: cols, vals: vals}
}

// ShallowCloneValues returns a copy of the matrix that shares the immutable
// sparsity pattern (row pointers and column indices) with the receiver but
// owns a private copy of the values. Callers that maintain one fixed pattern
// across many workers (per-worker circuit clones) use it to avoid duplicating
// the structural arrays; neither copy may mutate the pattern.
func (m *CSR) ShallowCloneValues() *CSR {
	vals := make([]float64, len(m.vals))
	copy(vals, m.vals)
	return &CSR{nrows: m.nrows, ncols: m.ncols, ptr: m.ptr, cols: m.cols, vals: vals}
}

// LowerTriangle returns the lower triangle (including the diagonal) of the
// matrix as a new CSR.
func (m *CSR) LowerTriangle() *CSR {
	ptr := make([]int, m.nrows+1)
	nnz := 0
	for i := 0; i < m.nrows; i++ {
		for k := m.ptr[i]; k < m.ptr[i+1]; k++ {
			if int(m.cols[k]) <= i {
				nnz++
			}
		}
		ptr[i+1] = nnz
	}
	cols := make([]int32, nnz)
	vals := make([]float64, nnz)
	w := 0
	for i := 0; i < m.nrows; i++ {
		for k := m.ptr[i]; k < m.ptr[i+1]; k++ {
			if int(m.cols[k]) <= i {
				cols[w] = m.cols[k]
				vals[w] = m.vals[k]
				w++
			}
		}
	}
	return &CSR{nrows: m.nrows, ncols: m.ncols, ptr: ptr, cols: cols, vals: vals}
}
