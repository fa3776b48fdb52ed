package solver

import (
	"errors"
	"math/rand"
	"testing"

	"emvia/internal/sparse"
)

// gridLaplacian builds the SPD conductance matrix of an nx×ny resistive mesh
// with unit edge conductances and a small leak on every diagonal — the same
// structure (5-point stencil plus gmin) the power-grid compiler produces, so
// these tests exercise the exact pattern class the sparse path serves.
func gridLaplacian(nx, ny int) *sparse.CSR {
	n := nx * ny
	tr := sparse.NewTriplet(n, n, 5*n)
	id := func(ix, iy int) int { return ix*ny + iy }
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			i := id(ix, iy)
			tr.Add(i, i, 1e-3)
			if ix+1 < nx {
				j := id(ix+1, iy)
				tr.Add(i, i, 1)
				tr.Add(j, j, 1)
				tr.Add(i, j, -1)
				tr.Add(j, i, -1)
			}
			if iy+1 < ny {
				j := id(ix, iy+1)
				tr.Add(i, i, 1)
				tr.Add(j, j, 1)
				tr.Add(i, j, -1)
				tr.Add(j, i, -1)
			}
		}
	}
	return tr.ToCSR()
}

// applyEdgeDelta stamps a conductance change dg of edge (i, j) into the
// matrix values, mirroring what the circuit engine's slot edits do.
func applyEdgeDelta(a *sparse.CSR, i, j int, dg float64) {
	a.AddAt(a.SlotIndex(i, i), dg)
	a.AddAt(a.SlotIndex(j, j), dg)
	a.AddAt(a.SlotIndex(i, j), -dg)
	a.AddAt(a.SlotIndex(j, i), -dg)
}

func TestAMDPermutationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []*sparse.CSR{
		gridLaplacian(15, 17),
		laplacian1D(40),
	}
	spd, _ := randomSPD(rng, 30)
	cases = append(cases, spd)
	for ci, a := range cases {
		perm := AMDOrder(a)
		inv := InversePermutation(perm)
		for i := range perm {
			if perm[inv[i]] != i || inv[perm[i]] != i {
				t.Fatalf("case %d: perm∘invperm is not the identity at %d", ci, i)
			}
		}
	}
}

func TestAMDReducesGridFill(t *testing.T) {
	a := gridLaplacian(20, 20)
	n, _ := a.Dims()
	natural := make([]int, n)
	for i := range natural {
		natural[i] = i
	}
	nat, err := NewSparseCholeskyOrdered(a, natural)
	if err != nil {
		t.Fatal(err)
	}
	amd, err := NewSparseCholeskyFromCSR(a)
	if err != nil {
		t.Fatal(err)
	}
	// A 20×20 mesh in natural (banded) order fills the whole band; AMD must
	// do clearly better for the sparse path to be worth having.
	if amd.NNZ() >= nat.NNZ() {
		t.Fatalf("AMD fill %d not below natural-order fill %d", amd.NNZ(), nat.NNZ())
	}
}

func TestAMDDeterministic(t *testing.T) {
	a := gridLaplacian(12, 9)
	p1, p2 := AMDOrder(a), AMDOrder(a)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("ordering differs at %d: %d vs %d", i, p1[i], p2[i])
		}
	}
}

// TestSparseCholeskyMatchesDenseAndCG cross-checks the three backends on
// random SPD systems: the sparse and dense factorizations are both exact, so
// they must agree to rounding; CG is checked at its own tolerance.
func TestSparseCholeskyMatchesDenseAndCG(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		n := 20 + trial*13
		a, dense := randomSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}

		sp, err := NewSparseCholeskyFromCSR(a)
		if err != nil {
			t.Fatal(err)
		}
		xs := make([]float64, n)
		if err := sp.SolveInto(xs, b); err != nil {
			t.Fatal(err)
		}

		dc, err := NewDenseCholesky(dense, n)
		if err != nil {
			t.Fatal(err)
		}
		xd, err := dc.Solve(b)
		if err != nil {
			t.Fatal(err)
		}

		xc, _, err := CG(a, b, Options{Tol: 1e-12})
		if err != nil {
			t.Fatal(err)
		}

		if d := maxAbsDiff(xs, xd); d > 1e-10 {
			t.Fatalf("n=%d: sparse vs dense max diff %g", n, d)
		}
		if d := maxAbsDiff(xs, xc); d > 1e-8 {
			t.Fatalf("n=%d: sparse vs CG max diff %g", n, d)
		}
		if r := residual(a, xs, b); r > 1e-12 {
			t.Fatalf("n=%d: sparse residual %g", n, r)
		}
	}
}

func TestSparseCholeskySolvesGrid(t *testing.T) {
	a := gridLaplacian(25, 23)
	n, _ := a.Dims()
	rng := rand.New(rand.NewSource(3))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	sp, err := NewSparseCholeskyFromCSR(a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	if err := sp.SolveInto(x, b); err != nil {
		t.Fatal(err)
	}
	if r := residual(a, x, b); r > 1e-10 {
		t.Fatalf("grid residual %g", r)
	}
}

// TestSparseCholeskyGroundedEdge exercises the single-terminal edge solve
// (the other terminal is a pad or ground and drops out of the edge vector)
// against a cold solve of the unit right-hand side, and the both-pinned
// edge, whose solution is zero.
func TestSparseCholeskyGroundedEdge(t *testing.T) {
	a := gridLaplacian(9, 9)
	n, _ := a.Dims()
	sp, err := NewSparseCholeskyFromCSR(a)
	if err != nil {
		t.Fatal(err)
	}
	node := 40
	b := make([]float64, n)
	b[node] = 1
	xe, xc, z := make([]float64, n), make([]float64, n), make([]float64, n)
	if err := sp.SolveEdgeInto(xe, -1, node, z); err != nil {
		t.Fatal(err)
	}
	if err := sp.SolveInto(xc, b); err != nil {
		t.Fatal(err)
	}
	for i := range xe {
		if xe[i] != -xc[i] {
			t.Fatalf("grounded-edge solve entry %d: %g, want %g", i, xe[i], -xc[i])
		}
	}
	if r := residual(a, xc, b); r > 1e-10 {
		t.Fatalf("grounded-edge residual %g", r)
	}
	if err := sp.SolveEdgeInto(xe, -1, -1, z); err != nil {
		t.Fatal(err)
	}
	for i, v := range xe {
		if v != 0 {
			t.Fatalf("both-pinned edge solve entry %d is %g, want 0", i, v)
		}
	}
}

func TestSparseCholeskyRejectsIndefiniteMatrix(t *testing.T) {
	tr := sparse.NewTriplet(2, 2, 4)
	tr.Add(0, 0, 1)
	tr.Add(1, 1, -1)
	tr.Add(0, 1, 0.5)
	tr.Add(1, 0, 0.5)
	if _, err := NewSparseCholeskyFromCSR(tr.ToCSR()); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("indefinite matrix returned %v, want ErrNotSPD", err)
	}
}

// TestSparseCholeskyCloneIndependent checks that a clone keeps its own
// numeric state: refactoring the source from an edited matrix must leave the
// clone solving the original system.
func TestSparseCholeskyCloneIndependent(t *testing.T) {
	a := gridLaplacian(8, 8)
	n, _ := a.Dims()
	sp, err := NewSparseCholeskyFromCSR(a.Clone())
	if err != nil {
		t.Fatal(err)
	}
	pristine := sp.Clone()
	edited := a.Clone()
	applyEdgeDelta(edited, 3, 11, -1)
	if err := sp.RefactorFromCSR(edited); err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	xp, xc := make([]float64, n), make([]float64, n)
	if err := pristine.SolveInto(xp, b); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSparseCholeskyOrdered(a, sp.Perm())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.SolveInto(xc, b); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(xp, xc); d > 1e-12 {
		t.Fatalf("clone drifted with its source: max diff %g", d)
	}
}

// TestSparseCholeskyZeroAlloc pins the allocation-free contract of every
// steady-state operation: refactor, solve, and edge solve.
func TestSparseCholeskyZeroAlloc(t *testing.T) {
	a := gridLaplacian(12, 12)
	n, _ := a.Dims()
	sp, err := NewSparseCholeskyFromCSR(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x, z := make([]float64, n), make([]float64, n)
	if allocs := testing.AllocsPerRun(10, func() {
		if err := sp.RefactorFromCSR(a); err != nil {
			t.Fatal(err)
		}
		if err := sp.SolveInto(x, b); err != nil {
			t.Fatal(err)
		}
		if err := sp.SolveEdgeInto(x, 17, 29, z); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("steady-state sparse ops allocated %v times per run", allocs)
	}
}
