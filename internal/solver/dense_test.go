package solver

import (
	"math"
	"math/rand"
	"testing"
)

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestDenseCholeskySolveIntoMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	_, dense := randomSPD(rng, 12)
	ch, err := NewDenseCholesky(dense, 12)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 12)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x1, err := ch.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	x2 := make([]float64, 12)
	if err := ch.SolveInto(x2, b); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(x1, x2); d != 0 {
		t.Errorf("SolveInto differs from Solve by %g", d)
	}
	if err := ch.SolveInto(make([]float64, 5), b); err == nil {
		t.Error("SolveInto accepted wrong-length x")
	}
}

func TestDenseCholeskyFromCSRMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(12)
		a, dense := randomSPD(rng, n)
		cd, err := NewDenseCholesky(dense, n)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := NewDenseCholeskyFromCSR(a)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xd, _ := cd.Solve(b)
		xs, _ := cs.Solve(b)
		if d := maxAbsDiff(xd, xs); d > 1e-12 {
			t.Errorf("trial %d: CSR-built factor differs by %g", trial, d)
		}
	}
}

// TestDenseCholeskyRefactorZeroAllocBitIdentical checks that refactoring a
// factor in place allocates nothing and leaves exactly the bits a freshly
// built factor of the new matrix holds, including after a failed refactor.
func TestDenseCholeskyRefactorZeroAllocBitIdentical(t *testing.T) {
	const n = 15
	rng := rand.New(rand.NewSource(29))
	_, first := randomSPD(rng, n)
	_, second := randomSPD(rng, n)
	ch, err := NewDenseCholesky(first, n)
	if err != nil {
		t.Fatal(err)
	}
	indefinite := make([]float64, n*n)
	indefinite[0] = -1
	if err := ch.Refactor(indefinite); err == nil {
		t.Fatal("Refactor accepted an indefinite matrix")
	}
	if err := ch.Refactor(make([]float64, 4)); err == nil {
		t.Error("Refactor accepted a matrix of the wrong dimension")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := ch.Refactor(second); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Refactor allocates %.1f objects per call, want 0", allocs)
	}
	fresh, err := NewDenseCholesky(second, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fresh.l {
		if math.Float64bits(ch.l[i]) != math.Float64bits(fresh.l[i]) {
			t.Fatalf("factor entry %d: refactored %v, fresh %v", i, ch.l[i], fresh.l[i])
		}
	}
}

// TestCGWorkspaceMatchesAndZeroAlloc checks that CG with a caller-provided
// workspace returns the same solution as the allocating path, and allocates
// nothing once the workspace is warm.
func TestCGWorkspaceMatchesAndZeroAlloc(t *testing.T) {
	n := 60
	a := laplacian1D(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Cos(float64(i))
	}
	jac, err := NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	xRef, stRef, err := CG(a, b, Options{Tol: 1e-10, M: jac})
	if err != nil {
		t.Fatal(err)
	}
	var ws Workspace
	ws.Reserve(n)
	xw, stw, err := CG(a, b, Options{Tol: 1e-10, M: jac, Work: &ws})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(xRef, xw); d != 0 {
		t.Errorf("workspace CG differs from allocating CG by %g", d)
	}
	if stw.Iterations != stRef.Iterations {
		t.Errorf("workspace CG took %d iterations, allocating took %d", stw.Iterations, stRef.Iterations)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := CG(a, b, Options{Tol: 1e-10, M: jac, Work: &ws}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("CG with workspace allocates %.1f objects per solve, want 0", allocs)
	}
}
