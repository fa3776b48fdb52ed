package solver

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"emvia/internal/par"
	"emvia/internal/sparse"
)

// blockDiag stacks two square matrices into one block-diagonal system.
func blockDiag(a, b *sparse.CSR) *sparse.CSR {
	na, _ := a.Dims()
	nb, _ := b.Dims()
	n := na + nb
	tr := sparse.NewTriplet(n, n, a.NNZ()+b.NNZ())
	for i := 0; i < na; i++ {
		cols, vals := a.Row(i)
		for t, c := range cols {
			tr.Add(i, int(c), vals[t])
		}
	}
	for i := 0; i < nb; i++ {
		cols, vals := b.Row(i)
		for t, c := range cols {
			tr.Add(na+i, na+int(c), vals[t])
		}
	}
	return tr.ToCSR()
}

// TestSupernodalMatchesScalarAndDense cross-checks the three direct backends:
// supernodal and scalar-sparse factor the same ordered system, dense factors
// it without reordering; all three are exact, so the solutions must agree to
// rounding.
func TestSupernodalMatchesScalarAndDense(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	systems := []*sparse.CSR{
		gridLaplacian(15, 17),
		laplacian1D(64),
	}
	spd, _ := randomSPD(rng, 48)
	systems = append(systems, spd)
	for ci, a := range systems {
		n, _ := a.Dims()
		perm := AMDOrder(a)
		sup, err := NewSupernodalCholeskyOrdered(a, perm, nil)
		if err != nil {
			t.Fatalf("case %d: supernodal: %v", ci, err)
		}
		scal, err := NewSparseCholeskyOrdered(a, perm)
		if err != nil {
			t.Fatalf("case %d: scalar: %v", ci, err)
		}
		dense := make([]float64, n*n)
		for i := 0; i < n; i++ {
			cols, vals := a.Row(i)
			for t2, c := range cols {
				dense[i*n+int(c)] = vals[t2]
			}
		}
		dc, err := NewDenseCholesky(dense, n)
		if err != nil {
			t.Fatalf("case %d: dense: %v", ci, err)
		}
		// Amalgamation stores some explicit zeros, so the supernodal panels
		// hold at least the scalar fill but only boundedly more.
		if sup.NNZ() < scal.NNZ() {
			t.Fatalf("case %d: supernodal fill %d below scalar fill %d under the same ordering", ci, sup.NNZ(), scal.NNZ())
		}
		// The absolute amalgamation slack dominates on near-band systems, so
		// the bound carries a constant term alongside the ratio.
		if sup.NNZ() > 2*scal.NNZ()+64 {
			t.Fatalf("case %d: supernodal fill %d more than 2x scalar fill %d", ci, sup.NNZ(), scal.NNZ())
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xs, xc, xd := make([]float64, n), make([]float64, n), make([]float64, n)
		if err := sup.SolveInto(xs, b); err != nil {
			t.Fatal(err)
		}
		if err := scal.SolveInto(xc, b); err != nil {
			t.Fatal(err)
		}
		if err := dc.SolveInto(xd, b); err != nil {
			t.Fatal(err)
		}
		scale := 0.0
		for i := range xd {
			if v := math.Abs(xd[i]); v > scale {
				scale = v
			}
		}
		for i := range xs {
			if d := math.Abs(xs[i]-xc[i]) / scale; d > 1e-10 {
				t.Fatalf("case %d: supernodal vs scalar differ at %d: %g vs %g", ci, i, xs[i], xc[i])
			}
			if d := math.Abs(xs[i]-xd[i]) / scale; d > 1e-10 {
				t.Fatalf("case %d: supernodal vs dense differ at %d: %g vs %g", ci, i, xs[i], xd[i])
			}
		}
	}
}

// TestSparseEdgeSolveBitIdentical pins the edge-solve contract on both
// sparse backends: SolveEdgeInto must reproduce SolveInto with right-hand
// side e_fa − e_fb bit for bit — including single-terminal (pad) edges,
// degenerate edges and non-adjacent node pairs — must leave its scratch
// all-zero, and must give the same bits when goroutines share the factor.
func TestSparseEdgeSolveBitIdentical(t *testing.T) {
	const ny = 41
	a := gridLaplacian(40, ny)
	n, _ := a.Dims()
	sup, err := NewSupernodalCholeskyFromCSR(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	scal, err := NewSparseCholeskyFromCSR(a)
	if err != nil {
		t.Fatal(err)
	}
	edges := [][2]int{
		{0, 1}, {100, 100 + ny}, {n - 2, n - 1}, {777, 778},
		{500, -1}, {-1, 1234}, {n - 1, -1}, // one terminal pinned
		{3, n - 4}, {900, 17}, // far apart: two long paths that merge late
		{42, 42}, {-1, -1}, // degenerate: the zero vector
	}
	for _, bk := range []struct {
		name string
		f    SparseFactor
	}{{"supernodal", sup}, {"scalar", scal}} {
		want := make([][]float64, len(edges))
		z := make([]float64, n)
		for ei, e := range edges {
			b := make([]float64, n)
			if e[0] >= 0 {
				b[e[0]] = 1
			}
			if e[1] >= 0 {
				b[e[1]] -= 1
			}
			want[ei] = make([]float64, n)
			if err := bk.f.SolveInto(want[ei], b); err != nil {
				t.Fatalf("%s: %v", bk.name, err)
			}
			got := make([]float64, n)
			if err := bk.f.SolveEdgeInto(got, e[0], e[1], z); err != nil {
				t.Fatalf("%s edge %v: %v", bk.name, e, err)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[ei][i]) {
					t.Fatalf("%s edge %v: entry %d is %x, SolveInto gives %x",
						bk.name, e, i, math.Float64bits(got[i]), math.Float64bits(want[ei][i]))
				}
				if z[i] != 0 {
					t.Fatalf("%s edge %v: scratch entry %d left at %g", bk.name, e, i, z[i])
				}
			}
		}
		// Concurrent edge solves on the one factor, each with its own
		// scratch: same bits, and no data race under -race.
		var wg sync.WaitGroup
		errs := make([]error, 4)
		for g := range errs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				x, z := make([]float64, n), make([]float64, n)
				for ei, e := range edges {
					if err := bk.f.SolveEdgeInto(x, e[0], e[1], z); err != nil {
						errs[g] = err
						return
					}
					for i := range x {
						if math.Float64bits(x[i]) != math.Float64bits(want[ei][i]) {
							errs[g] = fmt.Errorf("edge %v entry %d differs under concurrency", e, i)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", bk.name, err)
			}
		}
		if err := bk.f.SolveEdgeInto(make([]float64, n), n, 0, z); err == nil {
			t.Fatalf("%s: SolveEdgeInto accepted an out-of-range terminal", bk.name)
		}
		if err := bk.f.SolveEdgeInto(make([]float64, n-1), 0, 1, z); err == nil {
			t.Fatalf("%s: SolveEdgeInto accepted a short destination", bk.name)
		}
	}
}

// TestSupernodalWorkerDeterminism is the determinism matrix of ISSUE 6: on an
// nx200-class grid the factor values and solve results must be bit-identical
// at 1, 2, 4 and 8 workers.
func TestSupernodalWorkerDeterminism(t *testing.T) {
	a := gridLaplacian(200, 200)
	n, _ := a.Dims()
	perm := AutoOrder(a)
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	var refPx []float64
	var refX []float64
	for _, workers := range []int{1, 2, 4, 8} {
		var pool *par.Pool
		if workers > 1 {
			pool = par.New(workers)
			defer pool.Close()
		}
		c, err := NewSupernodalCholeskyOrdered(a, perm, pool)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		x := make([]float64, n)
		if err := c.SolveInto(x, b); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if refPx == nil {
			refPx = append([]float64(nil), c.px...)
			refX = x
			continue
		}
		for i := range refPx {
			if math.Float64bits(c.px[i]) != math.Float64bits(refPx[i]) {
				t.Fatalf("workers=%d: factor differs from workers=1 at panel entry %d", workers, i)
			}
		}
		for i := range refX {
			if math.Float64bits(x[i]) != math.Float64bits(refX[i]) {
				t.Fatalf("workers=%d: solution differs from workers=1 at %d", workers, i)
			}
		}
	}
}

// TestSupernodalRefactorTracksEdits mirrors the engine's epoch protocol:
// mutate the matrix in place, RefactorFromCSR, and check against a fresh
// factorization.
func TestSupernodalRefactorTracksEdits(t *testing.T) {
	a := gridLaplacian(25, 25)
	n, _ := a.Dims()
	c, err := NewSupernodalCholeskyFromCSR(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	applyEdgeDelta(a, 5, 30, 2.5)
	applyEdgeDelta(a, 200, 225, -0.8)
	if err := c.RefactorFromCSR(a); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSupernodalCholeskyOrdered(a, c.Perm(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.px {
		if math.Float64bits(c.px[i]) != math.Float64bits(fresh.px[i]) {
			t.Fatalf("refactored panel differs from fresh factorization at %d", i)
		}
	}
	_ = n
}

func TestSupernodalRejectsIndefiniteMatrix(t *testing.T) {
	tr := sparse.NewTriplet(2, 2, 4)
	tr.Add(0, 0, 1)
	tr.Add(0, 1, 3)
	tr.Add(1, 0, 3)
	tr.Add(1, 1, 1)
	if _, err := NewSupernodalCholeskyFromCSR(tr.ToCSR(), nil); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("factorization of indefinite matrix returned %v, want ErrNotSPD", err)
	}
}

// TestSupernodalCloneIndependent checks that a clone keeps its own numeric
// state: refactoring the source from an edited matrix must leave the clone
// solving the original system bit for bit.
func TestSupernodalCloneIndependent(t *testing.T) {
	a := gridLaplacian(14, 14)
	n, _ := a.Dims()
	c, err := NewSupernodalCholeskyFromCSR(a.Clone(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x0 := make([]float64, n)
	if err := c.SolveInto(x0, b); err != nil {
		t.Fatal(err)
	}
	var f SparseFactor = c
	pristine := f.CloneFactor()
	edited := a.Clone()
	applyEdgeDelta(edited, 7, 8, 1.5)
	if err := c.RefactorFromCSR(edited); err != nil {
		t.Fatal(err)
	}
	x1 := make([]float64, n)
	if err := pristine.SolveInto(x1, b); err != nil {
		t.Fatal(err)
	}
	for i := range x0 {
		if math.Float64bits(x0[i]) != math.Float64bits(x1[i]) {
			t.Fatalf("clone drifted with its source at %d", i)
		}
	}
}

// TestSupernodalZeroAllocHotPath pins the allocation-free contract of the
// refactor/solve/edge-solve cycle on the serial path.
func TestSupernodalZeroAllocHotPath(t *testing.T) {
	a := gridLaplacian(20, 20)
	n, _ := a.Dims()
	c, err := NewSupernodalCholeskyFromCSR(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x, z := make([]float64, n), make([]float64, n)
	allocs := testing.AllocsPerRun(10, func() {
		if err := c.RefactorFromCSR(a); err != nil {
			t.Fatal(err)
		}
		if err := c.SolveInto(x, b); err != nil {
			t.Fatal(err)
		}
		if err := c.SolveEdgeInto(x, 17, 29, z); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("refactor/solve cycle allocates %v times per run, want 0", allocs)
	}
}

// TestSupernodalPartitionInvariants sanity-checks the supernode partition on
// a mesh: contiguous coverage and width caps.
func TestSupernodalPartitionInvariants(t *testing.T) {
	a := gridLaplacian(30, 31)
	n, _ := a.Dims()
	c, err := NewSupernodalCholeskyFromCSR(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if int(c.snCol[0]) != 0 || int(c.snCol[c.nsup]) != n {
		t.Fatalf("supernode columns do not cover [0, %d)", n)
	}
	for s := 0; s < c.nsup; s++ {
		w := int(c.snCol[s+1] - c.snCol[s])
		if w <= 0 || w > snMaxWidth {
			t.Fatalf("supernode %d has width %d", s, w)
		}
		rows := c.snRows[c.snRptr[s]:c.snRptr[s+1]]
		if len(rows) < w {
			t.Fatalf("supernode %d has %d rows for width %d", s, len(rows), w)
		}
		for jj := 0; jj < w; jj++ {
			if int(rows[jj]) != int(c.snCol[s])+jj {
				t.Fatalf("supernode %d row list does not start with its own columns", s)
			}
		}
		for u := 1; u < len(rows); u++ {
			if rows[u] <= rows[u-1] {
				t.Fatalf("supernode %d row list not strictly ascending at %d", s, u)
			}
		}
	}
	if c.nsup >= n {
		t.Fatalf("mesh factor found no supernodes wider than one column (%d supernodes for %d columns)", c.nsup, n)
	}
}
