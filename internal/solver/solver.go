// Package solver provides iterative and direct solvers for the symmetric
// positive-definite (SPD) linear systems produced by finite-element stiffness
// assembly and power-grid nodal analysis.
//
// Power-grid circuits are solved by sparse Cholesky factorization: a scalar
// up-looking factor (SparseCholesky) and a blocked supernodal one
// (SupernodalCholesky), both behind the SparseFactor interface, with edge
// solves for Sherman–Morrison failure updates. Finite-element and thermal
// systems use the preconditioned conjugate-gradient method with a choice of
// identity, Jacobi (diagonal) or zero-fill incomplete-Cholesky
// preconditioners. A dense Cholesky factorization serves small via-array
// networks and reference solves in tests.
package solver

import (
	"errors"
	"fmt"
	"math"

	"emvia/internal/sparse"
)

// ErrNotConverged is wrapped by CG when the iteration limit is reached before
// the residual tolerance is met.
var ErrNotConverged = errors.New("solver: iteration limit reached before convergence")

// ErrNotSPD is returned by factorizations when a non-positive pivot shows the
// matrix is not positive definite.
var ErrNotSPD = errors.New("solver: matrix is not positive definite")

// Preconditioner applies z = M⁻¹·r for a symmetric positive-definite
// approximation M of the system matrix.
type Preconditioner interface {
	// Apply overwrites z with M⁻¹·r. z and r have the system dimension and
	// must not alias.
	Apply(z, r []float64)
}

// Identity is the trivial preconditioner M = I.
type Identity struct{}

// Apply copies r into z.
func (Identity) Apply(z, r []float64) { copy(z, r) }

// Jacobi is the diagonal preconditioner M = diag(A).
type Jacobi struct {
	invDiag []float64
}

// NewJacobi builds a Jacobi preconditioner from the diagonal of A. Zero or
// negative diagonal entries are rejected, since the target systems are SPD.
func NewJacobi(a *sparse.CSR) (*Jacobi, error) {
	d := a.Diagonal()
	inv := make([]float64, len(d))
	for i, v := range d {
		if v <= 0 {
			return nil, fmt.Errorf("%w: diagonal entry %d is %g", ErrNotSPD, i, v)
		}
		inv[i] = 1 / v
	}
	return &Jacobi{invDiag: inv}, nil
}

// Apply overwrites z with diag(A)⁻¹·r.
func (j *Jacobi) Apply(z, r []float64) {
	for i, ri := range r {
		z[i] = ri * j.invDiag[i]
	}
}

// Options configures the conjugate-gradient iteration.
type Options struct {
	// Tol is the relative residual tolerance ‖b−Ax‖₂ ≤ Tol·‖b‖₂.
	// Zero selects the default 1e-10.
	Tol float64
	// MaxIter bounds the number of iterations. Zero selects 10·n.
	MaxIter int
	// M is the preconditioner; nil selects Identity.
	M Preconditioner
	// X0 optionally provides a warm-start initial guess (copied, not
	// mutated). Nil starts from zero.
	X0 []float64
	// Work optionally supplies reusable solve buffers. When set, CG
	// performs no heap allocation and the returned solution aliases
	// Work.X — callers must copy it out before the next solve.
	Work *Workspace
}

// Workspace holds the scratch vectors of a CG solve so repeated solves of
// same-dimension systems (the Monte-Carlo re-solve loop) are allocation-free.
// The zero value is ready to use; buffers grow on first use.
type Workspace struct {
	X          []float64 // solution vector of the most recent solve
	r, z, p, a []float64
	// partials holds the per-block partial sums of the deterministic
	// blocked dot products (one slot per dotBlock-sized chunk).
	partials []float64
}

// Reserve grows the workspace to dimension n.
func (w *Workspace) Reserve(n int) {
	if cap(w.X) < n {
		w.X = make([]float64, n)
		w.r = make([]float64, n)
		w.z = make([]float64, n)
		w.p = make([]float64, n)
		w.a = make([]float64, n)
	}
	w.X = w.X[:n]
	w.r = w.r[:n]
	w.z = w.z[:n]
	w.p = w.p[:n]
	w.a = w.a[:n]
	nb := partialsLen(n)
	if cap(w.partials) < nb {
		w.partials = make([]float64, nb)
	}
	w.partials = w.partials[:nb]
}

// Stats reports how a CG solve went.
type Stats struct {
	Iterations int
	Residual   float64 // final relative residual
}

// CG solves A·x = b for SPD A by preconditioned conjugate gradients and
// returns the solution with iteration statistics. On ErrNotConverged the
// best iterate found is still returned.
func CG(a *sparse.CSR, b []float64, opt Options) ([]float64, Stats, error) {
	n, c := a.Dims()
	if n != c {
		return nil, Stats{}, fmt.Errorf("solver: CG needs a square matrix, got %d×%d", n, c)
	}
	if len(b) != n {
		return nil, Stats{}, fmt.Errorf("solver: CG rhs length %d does not match dimension %d", len(b), n)
	}
	tol := opt.Tol
	if tol == 0 {
		tol = 1e-10
	}
	maxIter := opt.MaxIter
	if maxIter == 0 {
		maxIter = 10 * n
		if maxIter < 100 {
			maxIter = 100
		}
	}
	var m Preconditioner = Identity{}
	if opt.M != nil {
		m = opt.M
	}

	var x, r, z, p, ap, partials []float64
	if opt.Work != nil {
		opt.Work.Reserve(n)
		x, r, z, p, ap = opt.Work.X, opt.Work.r, opt.Work.z, opt.Work.p, opt.Work.a
		partials = opt.Work.partials
		for i := range x {
			x[i] = 0
		}
	} else {
		x = make([]float64, n)
		r = make([]float64, n)
		z = make([]float64, n)
		p = make([]float64, n)
		ap = make([]float64, n)
		partials = make([]float64, partialsLen(n))
	}
	if opt.X0 != nil {
		if len(opt.X0) != n {
			return nil, Stats{}, fmt.Errorf("solver: CG warm start length %d does not match dimension %d", len(opt.X0), n)
		}
		copy(x, opt.X0)
		a.MulVecTo(r, x)
		for i := range r {
			r[i] = b[i] - r[i]
		}
	} else {
		copy(r, b)
	}

	bnorm := math.Sqrt(dotDet(b, b, partials))
	if bnorm == 0 {
		// b = 0 ⇒ x = 0 exactly.
		for i := range x {
			x[i] = 0
		}
		recordCG(Stats{})
		return x, Stats{Iterations: 0, Residual: 0}, nil
	}

	m.Apply(z, r)
	copy(p, z)
	rz := dotDet(r, z, partials)

	res := math.Sqrt(dotDet(r, r, partials)) / bnorm
	var it int
	for it = 0; it < maxIter && res > tol; it++ {
		a.MulVecTo(ap, p)
		pap := dotDet(p, ap, partials)
		if pap <= 0 || math.IsNaN(pap) {
			return x, Stats{Iterations: it, Residual: res},
				fmt.Errorf("%w: pᵀAp = %g at iteration %d", ErrNotSPD, pap, it)
		}
		alpha := rz / pap
		cgUpdate(x, r, p, ap, alpha)
		res = math.Sqrt(dotDet(r, r, partials)) / bnorm
		if res <= tol {
			it++
			break
		}
		m.Apply(z, r)
		rzNew := dotDet(r, z, partials)
		beta := rzNew / rz
		rz = rzNew
		cgDirection(p, z, beta)
	}
	st := Stats{Iterations: it, Residual: res}
	recordCG(st)
	if res > tol {
		return x, st, fmt.Errorf("%w: residual %.3e after %d iterations (tol %.3e)",
			ErrNotConverged, res, it, tol)
	}
	return x, st, nil
}
