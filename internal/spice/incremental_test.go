package spice

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"emvia/internal/solver"
	"emvia/internal/sparse"
)

// meshNetlist builds an n×n unit-resistance mesh with a 1 V pad at the
// origin and a small load at every other node. Resistor order: all
// horizontal edges row-major, then all vertical edges column-major — tests
// index into this layout to pick failure sequences that cannot island a
// node.
func meshNetlist(t *testing.T, n int) *Netlist {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("V1 n_0_0 0 1.0\n")
	id := 0
	for i := 0; i < n; i++ {
		for j := 0; j+1 < n; j++ {
			id++
			fmt.Fprintf(&sb, "R%d n_%d_%d n_%d_%d 1\n", id, i, j, i, j+1)
		}
	}
	for j := 0; j < n; j++ {
		for i := 0; i+1 < n; i++ {
			id++
			fmt.Fprintf(&sb, "R%d n_%d_%d n_%d_%d 1\n", id, i, j, i+1, j)
		}
	}
	k := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == 0 && j == 0 {
				continue
			}
			k++
			fmt.Fprintf(&sb, "I%d n_%d_%d 0 0.0001\n", k, i, j)
		}
	}
	nl, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("meshNetlist: %v", err)
	}
	return nl
}

// meshFailures returns 20 horizontal-edge resistor indices from interior
// rows of an n×n mesh. Every touched node keeps its vertical edges, so the
// grid stays connected throughout the sequence.
func meshFailures(t *testing.T, n int) []int {
	t.Helper()
	if n < 8 {
		t.Fatalf("mesh too small for 20 interior horizontal failures: n=%d", n)
	}
	var out []int
	for _, row := range []int{2, 4, 6} {
		for j := 0; j < n-1 && len(out) < 20; j++ {
			out = append(out, row*(n-1)+j)
		}
	}
	return out[:20]
}

// solveAll returns every node voltage of a fresh solve.
func solveAll(t *testing.T, c *Circuit) (*OP, []float64) {
	t.Helper()
	op, err := c.SolveDC(nil)
	if err != nil {
		t.Fatalf("SolveDC: %v", err)
	}
	v := make([]float64, c.NumNodes())
	for i := range v {
		v[i] = op.VoltageAt(i)
	}
	return op, v
}

// crossCheckIncremental drives one circuit through a 20-failure sequence
// with incremental re-solves, which refactor its private factor after each
// failure, and at 1, 5 and 20 failures compares every free-node voltage
// against reference, which solves a freshly compiled circuit that received
// the same failures cold. The two must agree to 1e-10 (relative).
func crossCheckIncremental(t *testing.T, reference func(t *testing.T, cold *Circuit) []float64) {
	t.Helper()
	nl := meshNetlist(t, 10)
	failures := meshFailures(t, 10)
	inc, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	solveAll(t, inc) // pristine warm-up solve
	vInc := make([]float64, inc.NumFree())
	milestones := map[int]bool{1: true, 5: true, 20: true}
	for k, ri := range failures {
		if err := inc.DisableResistor(ri); err != nil {
			t.Fatalf("failure %d (R index %d): %v", k+1, ri, err)
		}
		op, _ := solveAll(t, inc)
		if !milestones[k+1] {
			continue
		}
		if err := inc.GatherFree(vInc, op); err != nil {
			t.Fatal(err)
		}
		cold, err := Compile(nl)
		if err != nil {
			t.Fatal(err)
		}
		for _, rj := range failures[:k+1] {
			if err := cold.DisableResistor(rj); err != nil {
				t.Fatal(err)
			}
		}
		vCold := reference(t, cold)
		worst := 0.0
		for i := range vInc {
			d := math.Abs(vInc[i]-vCold[i]) / (1 + math.Abs(vCold[i]))
			if d > worst {
				worst = d
			}
		}
		t.Logf("after %2d failures: worst relative deviation %.2e", k+1, worst)
		if worst > 1e-10 {
			t.Errorf("after %d failures: incremental deviates from cold by %g, want ≤ 1e-10", k+1, worst)
		}
	}
}

// compiledSystem solves c once so that its compiled free-node matrix and
// right-hand side reflect every edit made so far, and returns them.
func compiledSystem(t *testing.T, c *Circuit) (*sparse.CSR, []float64) {
	t.Helper()
	solveAll(t, c)
	return c.asm.mat, c.asm.rhs
}

// TestIncrementalMatchesColdSparse checks the incremental path against a
// cold circuit solved on its own sparse factor.
func TestIncrementalMatchesColdSparse(t *testing.T) {
	crossCheckIncremental(t, func(t *testing.T, cold *Circuit) []float64 {
		op, _ := solveAll(t, cold)
		v := make([]float64, cold.NumFree())
		if err := cold.GatherFree(v, op); err != nil {
			t.Fatal(err)
		}
		return v
	})
}

// TestIncrementalMatchesColdDirect checks the incremental path against a
// dense Cholesky reference factored from the cold circuit's compiled matrix,
// a direct solve that shares no code with the sparse factors.
func TestIncrementalMatchesColdDirect(t *testing.T) {
	crossCheckIncremental(t, func(t *testing.T, cold *Circuit) []float64 {
		a, b := compiledSystem(t, cold)
		ref, err := solver.NewDenseCholeskyFromCSR(a)
		if err != nil {
			t.Fatal(err)
		}
		v, err := ref.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		return v
	})
}

// TestIncrementalMatchesColdCG checks the incremental path against an
// IC(0)-preconditioned CG solve of the cold circuit's compiled matrix at a
// 1e-13 residual, an iterative reference independent of any factorization.
func TestIncrementalMatchesColdCG(t *testing.T) {
	crossCheckIncremental(t, func(t *testing.T, cold *Circuit) []float64 {
		a, b := compiledSystem(t, cold)
		m, err := solver.NewIC0(a)
		if err != nil {
			t.Fatal(err)
		}
		v, _, err := solver.CG(a, b, solver.Options{Tol: 1e-13, M: m})
		if err != nil {
			t.Fatal(err)
		}
		return v
	})
}

// TestSolverBackendsAgree checks the circuit's solve of a pristine mesh
// against a dense Cholesky reference factored from the same compiled
// matrix: every free-node voltage must agree to 1e-10 (relative).
func TestSolverBackendsAgree(t *testing.T) {
	c, err := Compile(meshNetlist(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	op, _ := solveAll(t, c)
	if got := c.SolverBackend(); got != "sparse" {
		t.Errorf("SolverBackend() = %q for %d free nodes, want sparse", got, c.NumFree())
	}
	ref, err := solver.NewDenseCholeskyFromCSR(c.asm.mat)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Solve(c.asm.rhs)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, c.NumFree())
	if err := c.GatherFree(got, op); err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for i := range want {
		if d := math.Abs(got[i]-want[i]) / (1 + math.Abs(want[i])); d > worst {
			worst = d
		}
	}
	t.Logf("sparse vs dense reference: worst relative deviation %.2e", worst)
	if worst > 1e-10 {
		t.Errorf("sparse solve deviates from the dense reference by %g, want ≤ 1e-10", worst)
	}
}

// TestCloneBitIdenticalSparse drives a sparse master and its clone through
// the same failure sequence and demands bit-identical voltages at every
// step: the Monte-Carlo workers rely on Clone preserving the exact floating-
// point trajectory of the master.
func TestCloneBitIdenticalSparse(t *testing.T) {
	nl := meshNetlist(t, 10)
	master, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	solveAll(t, master) // builds the shared factor
	clone := master.Clone()
	if got, want := clone.SolverBackend(), master.SolverBackend(); got != want {
		t.Fatalf("clone backend %q, master %q", got, want)
	}
	_, vC := solveAll(t, clone)
	_, vM := solveAll(t, master)
	for i := range vM {
		if vM[i] != vC[i] {
			t.Fatalf("pristine node %d: master %v clone %v (not bit-identical)", i, vM[i], vC[i])
		}
	}
	for step, ri := range meshFailures(t, 10)[:8] {
		if err := master.DisableResistor(ri); err != nil {
			t.Fatal(err)
		}
		if err := clone.DisableResistor(ri); err != nil {
			t.Fatal(err)
		}
		_, vM = solveAll(t, master)
		_, vC = solveAll(t, clone)
		for i := range vM {
			if vM[i] != vC[i] {
				t.Fatalf("step %d node %d: master %v clone %v (not bit-identical)", step, i, vM[i], vC[i])
			}
		}
	}
	// Per-trial reset must restore both to the same pristine state.
	master.ResetResistors()
	clone.ResetResistors()
	_, vM = solveAll(t, master)
	_, vC = solveAll(t, clone)
	for i := range vM {
		if vM[i] != vC[i] {
			t.Fatalf("post-reset node %d: master %v clone %v", i, vM[i], vC[i])
		}
	}
}

// TestClonesShareSparseFactorConcurrently runs clones of one sparse master
// on separate goroutines — pristine solve, edge solve, failure and re-solve
// — and requires the master's bits from each. The clones share the
// pristine factor, so under -race this shows they only ever read it.
func TestClonesShareSparseFactorConcurrently(t *testing.T) {
	nl := meshNetlist(t, 10)
	master, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	_, want0 := solveAll(t, master)
	clones := make([]*Circuit, 4)
	for i := range clones {
		clones[i] = master.Clone()
	}
	ri := meshFailures(t, 10)[0]
	n := master.NumFree()
	wantZ := make([]float64, n)
	if err := master.SolveEdge(wantZ, ri, make([]float64, n)); err != nil {
		t.Fatal(err)
	}
	if err := master.DisableResistor(ri); err != nil {
		t.Fatal(err)
	}
	_, want1 := solveAll(t, master)

	same := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	var wg sync.WaitGroup
	errs := make([]error, len(clones))
	for i, c := range clones {
		wg.Add(1)
		go func(i int, c *Circuit) {
			defer wg.Done()
			op, err := c.SolveDC(nil)
			if err != nil {
				errs[i] = err
				return
			}
			z := make([]float64, n)
			if err := c.SolveEdge(z, ri, make([]float64, n)); err != nil {
				errs[i] = err
				return
			}
			if err := c.DisableResistor(ri); err != nil {
				errs[i] = err
				return
			}
			op1, err := c.SolveDC(nil)
			if err != nil {
				errs[i] = err
				return
			}
			v0, v1 := make([]float64, len(want0)), make([]float64, len(want1))
			for k := range v0 {
				v0[k], v1[k] = op.VoltageAt(k), op1.VoltageAt(k)
			}
			if !same(v0, want0) || !same(z, wantZ) || !same(v1, want1) {
				errs[i] = fmt.Errorf("clone %d: results differ from the master's", i)
			}
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSetCurrentMatchesRecompile checks the load-push path used by the tuner:
// editing a current source in place must match a fresh compile of the edited
// netlist, and the edit must survive ResetResistors (it is a load change, not
// a resistor trial edit).
func TestSetCurrentMatchesRecompile(t *testing.T) {
	nl := meshNetlist(t, 8)
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	solveAll(t, c)
	if got, want := c.NumCurrents(), len(nl.Currents); got != want {
		t.Fatalf("NumCurrents() = %d, want %d", got, want)
	}
	for i := range nl.Currents {
		if err := c.SetCurrent(i, nl.Currents[i].Amps*1.7); err != nil {
			t.Fatal(err)
		}
	}
	c.ResetResistors() // must keep the new loads
	_, vGot := solveAll(t, c)

	edited := *nl
	edited.Currents = append([]CurrentSource(nil), nl.Currents...)
	for i := range edited.Currents {
		edited.Currents[i].Amps *= 1.7
	}
	ref, err := Compile(&edited)
	if err != nil {
		t.Fatal(err)
	}
	_, vWant := solveAll(t, ref)
	for i := range vGot {
		if d := math.Abs(vGot[i]-vWant[i]) / (1 + math.Abs(vWant[i])); d > 1e-10 {
			t.Fatalf("node %d: pushed %g vs recompiled %g (rel %g)", i, vGot[i], vWant[i], d)
		}
	}
	if err := c.SetCurrent(-1, 0); err == nil {
		t.Error("SetCurrent(-1) did not fail")
	}
}

// TestSparseBulkEditRefactors rescales every resistor between two solves and
// checks the refactorization of the private factor lands on the
// cold-compile answer, while the pristine factor behind SolveEdge stays
// untouched.
func TestSparseBulkEditRefactors(t *testing.T) {
	nl := meshNetlist(t, 10)
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	solveAll(t, c)
	// Rescale every resistor: a bulk edit between two solves.
	for i := range nl.Resistors {
		if err := c.SetResistor(i, nl.Resistors[i].Ohms*1.31); err != nil {
			t.Fatal(err)
		}
	}
	opGot, vGot := solveAll(t, c)
	if r, err := c.Residual(opGot); err != nil || r > 1e-12 {
		t.Fatalf("bulk-edited solve residual %g (%v)", r, err)
	}
	// The edge solve still runs against the compiled values: A₀·z = e_a − e_b.
	n := c.NumFree()
	z, scratch := make([]float64, n), make([]float64, n)
	if err := c.SolveEdge(z, 0, scratch); err != nil {
		t.Fatal(err)
	}
	pristine, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	solveAll(t, pristine)
	az := pristine.asm.mat.MulVec(z)
	fa, fb, _, _ := c.ResistorTerms(0)
	for i, v := range az {
		want := 0.0
		switch i {
		case fa:
			want = 1
		case fb:
			want = -1
		}
		if math.Abs(v-want) > 1e-9 {
			t.Fatalf("edge solve after bulk edit: (A₀·z)[%d] = %g, want %g", i, v, want)
		}
	}

	edited := *nl
	edited.Resistors = append([]Resistor(nil), nl.Resistors...)
	for i := range edited.Resistors {
		edited.Resistors[i].Ohms *= 1.31
	}
	ref, err := Compile(&edited)
	if err != nil {
		t.Fatal(err)
	}
	_, vWant := solveAll(t, ref)
	for i := range vGot {
		if d := math.Abs(vGot[i]-vWant[i]) / (1 + math.Abs(vWant[i])); d > 1e-10 {
			t.Fatalf("node %d: bulk-edited %g vs recompiled %g (rel %g)", i, vGot[i], vWant[i], d)
		}
	}
}

// TestResidualFlagsPerturbation checks the KCL residual helper: a direct
// solve sits at rounding level, a 1 mV error at one node does not, and the
// residual of the pristine point against an edited circuit exposes the edit.
func TestResidualFlagsPerturbation(t *testing.T) {
	nl := meshNetlist(t, 10)
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	op, _ := solveAll(t, c)
	r0, err := c.Residual(op)
	if err != nil {
		t.Fatal(err)
	}
	if r0 > 1e-12 {
		t.Fatalf("direct solve residual %g, want ≤ 1e-12", r0)
	}
	bad := op.CloneFor(c)
	for i := 0; i < c.NumNodes(); i++ {
		if !c.IsPad(i) {
			bad.volts[i] -= 1e-3
			break
		}
	}
	if r, _ := c.Residual(bad); r < 1e-6 {
		t.Fatalf("perturbed point residual %g, want ≥ 1e-6", r)
	}
	edited, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	solveAll(t, edited)
	if err := edited.DisableResistor(meshFailures(t, 10)[0]); err != nil {
		t.Fatal(err)
	}
	if r, _ := edited.Residual(op); r < 1e-6 {
		t.Fatalf("pristine point against the edited circuit: residual %g, want ≥ 1e-6", r)
	}
	if _, err := c.Residual(&OP{}); err == nil {
		t.Fatal("Residual accepted an operating point of the wrong size")
	}
	unsolved, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	n := unsolved.NumFree()
	if err := unsolved.SolveEdge(make([]float64, n), 0, make([]float64, n)); err == nil {
		t.Fatal("SolveEdge ran without a pristine factor")
	}
}

func TestResistorCurrentZeroWhenDisabled(t *testing.T) {
	nl := meshNetlist(t, 8)
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	op, err := c.SolveDC(nil)
	if err != nil {
		t.Fatal(err)
	}
	if i := op.ResistorCurrent(3); i == 0 {
		t.Error("pristine interior resistor carries no current")
	}
	if err := c.DisableResistor(3); err != nil {
		t.Fatal(err)
	}
	op, err = c.SolveDC(op)
	if err != nil {
		t.Fatal(err)
	}
	if i := op.ResistorCurrent(3); i != 0 {
		t.Errorf("disabled resistor current = %g, want exactly 0", i)
	}
}

// TestSetResistorReenablesDisabled checks that SetResistor on a disabled
// resistor brings it back with the new conductance, matching a circuit that
// never saw the disable.
func TestSetResistorReenablesDisabled(t *testing.T) {
	nl := meshNetlist(t, 8)
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	solveAll(t, c)
	if err := c.DisableResistor(5); err != nil {
		t.Fatal(err)
	}
	solveAll(t, c)
	if err := c.SetResistor(5, 2.5); err != nil {
		t.Fatal(err)
	}
	if c.ResistorDisabled(5) {
		t.Fatal("resistor still disabled after SetResistor")
	}
	_, vGot := solveAll(t, c)

	ref, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.SetResistor(5, 2.5); err != nil {
		t.Fatal(err)
	}
	_, vWant := solveAll(t, ref)
	for i := range vGot {
		if d := math.Abs(vGot[i]-vWant[i]) / (1 + math.Abs(vWant[i])); d > 1e-9 {
			t.Fatalf("node %d: re-enabled %g vs fresh %g (rel %g)", i, vGot[i], vWant[i], d)
		}
	}
}

// TestResetResistorsRestoresPristine checks the canonical per-trial reset:
// after arbitrary edits, ResetResistors must reproduce the pristine solve
// exactly.
func TestResetResistorsRestoresPristine(t *testing.T) {
	nl := meshNetlist(t, 8)
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	solveAll(t, c) // cold compile + solve
	c.ResetResistors()
	_, v0 := solveAll(t, c)
	for _, ri := range []int{1, 7, 12} {
		if err := c.DisableResistor(ri); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SetResistor(20, 9); err != nil {
		t.Fatal(err)
	}
	solveAll(t, c)
	c.ResetResistors()
	for _, ri := range []int{1, 7, 12} {
		if c.ResistorDisabled(ri) {
			t.Fatalf("resistor %d still disabled after reset", ri)
		}
	}
	_, v1 := solveAll(t, c)
	for i := range v0 {
		if d := math.Abs(v1[i]-v0[i]) / (1 + math.Abs(v0[i])); d > 1e-10 {
			t.Fatalf("node %d: post-reset %g vs pristine %g", i, v1[i], v0[i])
		}
	}
}

// TestSolveDCIncrementalAllocs is the allocation budget of a re-solving
// circuit: once the private factor exists, a disable → re-solve → re-enable
// → re-solve cycle must not touch the heap. There is one subtest per circuit
// factor, named as SolverBackend reports it.
func TestSolveDCIncrementalAllocs(t *testing.T) {
	for _, tc := range []struct {
		backend string
		mesh    int
	}{
		{"sparse", 10},
		{"supernodal", 46}, // 2115 free nodes, above the supernodal threshold
	} {
		t.Run(tc.backend, func(t *testing.T) {
			c, err := Compile(meshNetlist(t, tc.mesh))
			if err != nil {
				t.Fatal(err)
			}
			dst := c.NewOP()
			cycle := func() {
				if err := c.DisableResistor(4); err != nil {
					t.Fatal(err)
				}
				if err := c.SolveDCInto(dst); err != nil {
					t.Fatal(err)
				}
				if err := c.SetResistor(4, 1); err != nil {
					t.Fatal(err)
				}
				if err := c.SolveDCInto(dst); err != nil {
					t.Fatal(err)
				}
			}
			// Warm-up: the first solve builds the pristine factor, the first
			// edited solve its private copy.
			if err := c.SolveDCInto(dst); err != nil {
				t.Fatal(err)
			}
			if got := c.SolverBackend(); got != tc.backend {
				t.Fatalf("SolverBackend() = %q for %d free nodes, want %q", got, c.NumFree(), tc.backend)
			}
			cycle()
			if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
				t.Errorf("hot loop allocates %.1f objects per cycle, want 0", allocs)
			}
		})
	}
}
