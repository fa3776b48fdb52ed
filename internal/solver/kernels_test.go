package solver

import (
	"math/rand"
	"testing"
)

// TestCGPoolWithWorkspaceAndWarmStart checks that repeated warm-started
// solves through one reused workspace match a fresh allocating solve bit for
// bit, at a dimension spanning several dot-product blocks.
func TestCGPoolWithWorkspaceAndWarmStart(t *testing.T) {
	n := 2*dotBlock + 51
	a := laplacian1D(n)
	b := make([]float64, n)
	x0 := make([]float64, n)
	rng := rand.New(rand.NewSource(3))
	for i := range b {
		b[i] = rng.NormFloat64()
		x0[i] = 0.1 * rng.NormFloat64()
	}
	xRef, stRef, err := CG(a, b, Options{Tol: 1e-10, X0: x0})
	if err != nil {
		t.Fatal(err)
	}
	var ws Workspace
	for rep := 0; rep < 3; rep++ {
		x, st, err := CG(a, b, Options{Tol: 1e-10, X0: x0, Work: &ws})
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		if st != stRef {
			t.Errorf("rep %d stats %+v, serial %+v", rep, st, stRef)
		}
		for i := range x {
			if x[i] != xRef[i] {
				t.Fatalf("rep %d x[%d] differs from serial", rep, i)
			}
		}
	}
}

// TestCGSerialPoolZeroAlloc pins down that with a reserved workspace
// (including the partials scratch) a solve spanning more than one
// dot-product block is allocation-free.
func TestCGSerialPoolZeroAlloc(t *testing.T) {
	n := dotBlock + 200
	a := laplacian1D(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	jac, err := NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	var ws Workspace
	ws.Reserve(n)
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := CG(a, b, Options{Tol: 1e-10, M: jac, Work: &ws}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("CG allocates %.1f objects per solve, want 0", allocs)
	}
}

// TestWorkspaceReservePartials checks the partials scratch is sized with the
// rest of the workspace so repeated solves reuse it.
func TestWorkspaceReservePartials(t *testing.T) {
	var ws Workspace
	ws.Reserve(3*dotBlock + 1)
	if got, want := len(ws.partials), partialsLen(3*dotBlock+1); got != want {
		t.Errorf("partials len = %d, want %d", got, want)
	}
	if len(ws.partials) != 4 {
		t.Errorf("partials len = %d, want 4 for n = 3·dotBlock+1", len(ws.partials))
	}
	// Shrinking re-slices without reallocating.
	p0 := &ws.partials[0]
	ws.Reserve(dotBlock)
	if len(ws.partials) != 1 || &ws.partials[0] != p0 {
		t.Error("Reserve to a smaller n reallocated the partials scratch")
	}
}

// TestDotDetBlockOrderIndependent pins dotDet to its blocked summation
// order: per-block sums of dotBlock terms, added in block order. The FEA
// results depend on that order bit for bit.
func TestDotDetBlockOrderIndependent(t *testing.T) {
	n := 2*dotBlock + 333
	rng := rand.New(rand.NewSource(11))
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	want := 0.0
	for lo := 0; lo < n; lo += dotBlock {
		block := 0.0
		for i := lo; i < n && i < lo+dotBlock; i++ {
			block += a[i] * b[i]
		}
		want += block
	}
	if got := dotDet(a, b, make([]float64, partialsLen(n))); got != want {
		t.Errorf("dotDet = %g, blocked reference %g", got, want)
	}
}
