package fem

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"emvia/internal/mat"
	"emvia/internal/mesh"
	"emvia/internal/phys"
	"emvia/internal/solver"
	"emvia/internal/telemetry"
	"emvia/internal/trace"
)

// cube builds an n×n×n single-material unit cube grid.
func cube(t *testing.T, n int, id mat.ID) *mesh.Grid {
	t.Helper()
	lines := mesh.Lines([]float64{0, 1e-6}, 1e-6/float64(n), 1e-15)
	g, err := mesh.New(lines, lines, lines)
	if err != nil {
		t.Fatalf("mesh.New: %v", err)
	}
	g.Paint(mesh.Box{X0: 0, X1: 1e-6, Y0: 0, Y1: 1e-6, Z0: 0, Z1: 1e-6}, id)
	return g
}

const dT = -225.0 // K, anneal 330 °C → operate 105 °C

// TestFreeExpansionZeroStress: a uniform body with minimal constraints
// expands freely under ΔT → stress must vanish.
func TestFreeExpansionZeroStress(t *testing.T) {
	g := cube(t, 3, mat.Copper)
	m := NewModel(g, dT)
	// Minimal rigid-body constraints: three roller symmetry planes act like
	// an octant model of a free cube.
	m.SetFaceBC(XMin, Roller)
	m.SetFaceBC(YMin, Roller)
	m.SetFaceBC(ZMin, Roller)
	res, err := m.Solve(SolveOptions{Tol: 1e-12})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for k := 0; k < 3; k++ {
		for j := 0; j < 3; j++ {
			for i := 0; i < 3; i++ {
				s, ok := res.StressAt(i, j, k)
				if !ok {
					t.Fatal("hole in solid cube")
				}
				for name, v := range map[string]float64{"xx": s.XX, "yy": s.YY, "zz": s.ZZ, "xy": s.XY, "yz": s.YZ, "zx": s.ZX} {
					if math.Abs(v) > 1.0 { // Pa; stresses here are O(GPa) when constrained
						t.Errorf("cell (%d,%d,%d) σ%s = %g Pa, want ~0", i, j, k, name, v)
					}
				}
			}
		}
	}
	// Displacement check: free thermal strain ε = αΔT, so the far corner
	// moves by ε·L in each axis.
	p := mat.Table1[mat.Copper]
	wantU := p.CTE * dT * 1e-6
	nnx, nny, nnz := g.NodeDims()
	n := g.NodeID(nnx-1, nny-1, nnz-1)
	for d := 0; d < 3; d++ {
		if got := res.U[3*n+d]; math.Abs(got-wantU) > 1e-9*math.Abs(wantU)+1e-18 {
			t.Errorf("corner displacement[%d] = %g, want %g", d, got, wantU)
		}
	}
}

// TestFullyConstrainedHydrostatic: all faces roller → ε = 0 everywhere →
// σ = −(3λ+2µ)αΔT on the diagonal, i.e. σ_H = −3K·αΔT.
func TestFullyConstrainedHydrostatic(t *testing.T) {
	g := cube(t, 2, mat.Copper)
	m := NewModel(g, dT)
	for f := XMin; f <= ZMax; f++ {
		m.SetFaceBC(f, Roller)
	}
	res, err := m.Solve(SolveOptions{Tol: 1e-12})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	p := mat.Table1[mat.Copper]
	want := -3 * p.BulkModulus() * p.CTE * dT
	h, ok := res.HydrostaticAt(1, 1, 1)
	if !ok {
		t.Fatal("hole in solid cube")
	}
	if math.Abs(h-want)/want > 1e-9 {
		t.Errorf("σ_H = %g, want %g", h, want)
	}
	if want < 0 {
		t.Errorf("cooling a constrained solid must give tensile stress, got want=%g", want)
	}
}

// TestUniaxialConstraint: x constrained on both x faces, free laterally →
// σ_xx = −EαΔT, σ_yy = σ_zz = 0.
func TestUniaxialConstraint(t *testing.T) {
	g := cube(t, 3, mat.Copper)
	m := NewModel(g, dT)
	m.SetFaceBC(XMin, Roller)
	m.SetFaceBC(XMax, Roller)
	// Pin rigid-body motion in y/z via rollers on the lower faces only;
	// upper faces stay free so lateral contraction is unimpeded.
	m.SetFaceBC(YMin, Roller)
	m.SetFaceBC(ZMin, Roller)
	res, err := m.Solve(SolveOptions{Tol: 1e-12})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	p := mat.Table1[mat.Copper]
	want := -p.E * p.CTE * dT
	s, _ := res.StressAt(1, 1, 1)
	if math.Abs(s.XX-want)/math.Abs(want) > 1e-6 {
		t.Errorf("σ_xx = %g, want %g", s.XX, want)
	}
	if math.Abs(s.YY) > 1e-3*math.Abs(want) || math.Abs(s.ZZ) > 1e-3*math.Abs(want) {
		t.Errorf("lateral stresses σ_yy=%g σ_zz=%g, want ~0", s.YY, s.ZZ)
	}
}

// TestBimaterialTensileCopper: Cu slab sandwiched by stiff low-CTE layers,
// cooled: Cu wants to shrink more → ends up in tension (positive σ_H).
func TestBimaterialTensileCopper(t *testing.T) {
	xs := mesh.Lines([]float64{0, 1e-6}, 0.25e-6, 1e-15)
	zs := mesh.Lines([]float64{0, 0.3e-6, 0.6e-6, 0.9e-6}, 0.15e-6, 1e-15)
	g, err := mesh.New(xs, xs, zs)
	if err != nil {
		t.Fatal(err)
	}
	g.Paint(mesh.Box{X0: 0, X1: 1e-6, Y0: 0, Y1: 1e-6, Z0: 0, Z1: 0.3e-6}, mat.Silicon)
	g.Paint(mesh.Box{X0: 0, X1: 1e-6, Y0: 0, Y1: 1e-6, Z0: 0.3e-6, Z1: 0.6e-6}, mat.Copper)
	g.Paint(mesh.Box{X0: 0, X1: 1e-6, Y0: 0, Y1: 1e-6, Z0: 0.6e-6, Z1: 0.9e-6}, mat.SiN)
	m := NewModel(g, dT)
	m.SetFaceBC(XMin, Roller)
	m.SetFaceBC(XMax, Roller)
	m.SetFaceBC(YMin, Roller)
	m.SetFaceBC(YMax, Roller)
	m.SetFaceBC(ZMin, Clamp)
	res, err := m.Solve(SolveOptions{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	peak, found := res.MaxHydrostaticInBox(mesh.Box{X0: 0, X1: 1e-6, Y0: 0, Y1: 1e-6, Z0: 0.3e-6, Z1: 0.6e-6}, mat.Copper)
	if !found {
		t.Fatal("no copper cells found")
	}
	if peak <= 50*phys.MPa {
		t.Errorf("confined Cu hydrostatic stress = %g MPa, want clearly tensile (> 50 MPa)", peak/phys.MPa)
	}
	if peak > 2000*phys.MPa {
		t.Errorf("confined Cu hydrostatic stress = %g MPa, implausibly high", peak/phys.MPa)
	}
}

// TestHoleExclusion: cells painted None are excluded and queried as holes.
func TestHoleExclusion(t *testing.T) {
	g := cube(t, 3, mat.Copper)
	// Carve a hole in the middle.
	g.SetMaterial(1, 1, 1, mat.None)
	m := NewModel(g, dT)
	m.SetFaceBC(ZMin, Clamp)
	res, err := m.Solve(SolveOptions{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if _, ok := res.StressAt(1, 1, 1); ok {
		t.Error("hole reported stress")
	}
	if _, ok := res.StressAt(0, 0, 0); !ok {
		t.Error("solid cell reported as hole")
	}
}

func TestNoDOFsError(t *testing.T) {
	g := cube(t, 1, mat.None) // nothing painted: Paint with None is a no-op anyway
	m := NewModel(g, dT)
	if _, err := m.Solve(SolveOptions{}); err == nil {
		t.Error("expected error for empty model")
	}
}

func TestPrecondChoices(t *testing.T) {
	g := cube(t, 2, mat.Copper)
	for _, pc := range []string{"auto", "jacobi", "none", "ic0"} {
		m := NewModel(g, dT)
		for f := XMin; f <= ZMax; f++ {
			m.SetFaceBC(f, Roller)
		}
		res, err := m.Solve(SolveOptions{Precond: pc})
		if err != nil {
			t.Fatalf("Precond %q: %v", pc, err)
		}
		p := mat.Table1[mat.Copper]
		want := -3 * p.BulkModulus() * p.CTE * dT
		h, _ := res.HydrostaticAt(0, 0, 0)
		if math.Abs(h-want)/want > 1e-6 {
			t.Errorf("Precond %q: σ_H = %g, want %g", pc, h, want)
		}
	}
	m := NewModel(g, dT)
	if _, err := m.Solve(SolveOptions{Precond: "bogus"}); err == nil {
		t.Error("accepted bogus preconditioner name")
	}
}

func TestLineScanX(t *testing.T) {
	g := cube(t, 4, mat.Copper)
	m := NewModel(g, dT)
	for f := XMin; f <= ZMax; f++ {
		m.SetFaceBC(f, Roller)
	}
	res, err := m.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	xs, sh := res.LineScanX(0.5e-6, 0.5e-6)
	if len(xs) != 4 || len(sh) != 4 {
		t.Fatalf("LineScanX lengths = %d,%d, want 4,4", len(xs), len(sh))
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			t.Error("scan x not increasing")
		}
	}
	// Fully constrained uniform body: stress constant along the scan.
	for i := 1; i < len(sh); i++ {
		if math.Abs(sh[i]-sh[0]) > 1e-6*math.Abs(sh[0]) {
			t.Errorf("scan stress varies: %g vs %g", sh[i], sh[0])
		}
	}
	// Scan outside the domain returns nothing.
	if xs, _ := res.LineScanX(5e-6, 0.5e-6); xs != nil {
		t.Error("scan outside domain returned data")
	}
}

func TestVonMisesAndTensorInvariants(t *testing.T) {
	tens := Tensor{XX: 100, YY: 100, ZZ: 100}
	if vm := tens.VonMises(); vm != 0 {
		t.Errorf("pure hydrostatic von Mises = %g, want 0", vm)
	}
	if h := tens.Hydrostatic(); h != 100 {
		t.Errorf("hydrostatic = %g, want 100", h)
	}
	shear := Tensor{XY: 10}
	if vm := shear.VonMises(); math.Abs(vm-10*math.Sqrt(3)) > 1e-9 {
		t.Errorf("pure shear von Mises = %g, want %g", vm, 10*math.Sqrt(3))
	}
}

// TestStiffnessSymmetryAndNullspace checks the element matrix directly:
// symmetric, and rigid translations produce zero force.
func TestStiffnessSymmetryAndNullspace(t *testing.T) {
	p := mat.Table1[mat.Copper]
	ke, _ := elemStiffness(1e-6, 2e-6, 0.5e-6, p, 0)
	for i := 0; i < 24; i++ {
		for j := 0; j < 24; j++ {
			if math.Abs(ke[i*24+j]-ke[j*24+i]) > 1e-3*math.Abs(ke[i*24+i]) {
				t.Fatalf("Ke asymmetric at (%d,%d)", i, j)
			}
		}
	}
	// Rigid translation in each axis → Ke·u = 0.
	for d := 0; d < 3; d++ {
		var u [24]float64
		for a := 0; a < 8; a++ {
			u[3*a+d] = 1
		}
		for i := 0; i < 24; i++ {
			s := 0.0
			for j := 0; j < 24; j++ {
				s += ke[i*24+j] * u[j]
			}
			if math.Abs(s) > 1e-6*ke[i*24+i] {
				t.Fatalf("rigid translation axis %d gives force %g at dof %d", d, s, i)
			}
		}
	}
}

// TestThermalForceConsistency: for a fully-constrained element the thermal
// force equals the reaction of uniform stress σ = D·ε_th.
func TestThermalForceConsistency(t *testing.T) {
	p := mat.Table1[mat.Copper]
	_, fe := elemStiffness(1e-6, 1e-6, 1e-6, p, dT)
	// Total force on the element must vanish (internal equilibrium).
	for d := 0; d < 3; d++ {
		s := 0.0
		for a := 0; a < 8; a++ {
			s += fe[3*a+d]
		}
		if math.Abs(s) > 1e-9 {
			t.Errorf("thermal force unbalanced along axis %d: %g", d, s)
		}
	}
}

// TestElementPSDProperty: the element stiffness matrix must be symmetric
// positive semidefinite (6 rigid-body zero modes) for random box sizes and
// every material.
func TestElementPSDProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := [3]float64{}
		for i := range dims {
			dims[i] = (0.05 + rng.Float64()) * 1e-6
		}
		ids := mat.All()
		id := ids[rng.Intn(len(ids))]
		p := mat.Table1[id]
		ke, _ := elemStiffness(dims[0], dims[1], dims[2], p, -145)
		// Random vector quadratic form must be ≥ 0 (within roundoff).
		scale := ke[0]
		for trial := 0; trial < 10; trial++ {
			var u [24]float64
			for i := range u {
				u[i] = rng.NormFloat64()
			}
			q := 0.0
			for i := 0; i < 24; i++ {
				for j := 0; j < 24; j++ {
					q += u[i] * ke[i*24+j] * u[j]
				}
			}
			if q < -1e-9*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestStressInvariantUnderUniformScaling: scaling the whole structure
// geometrically leaves thermal stress unchanged (stress depends on strain,
// not absolute size).
func TestStressInvariantUnderUniformScaling(t *testing.T) {
	stress := func(scale float64) float64 {
		lines := mesh.Lines([]float64{0, scale * 1e-6}, scale*0.5e-6, 1e-18)
		g, err := mesh.New(lines, lines, lines)
		if err != nil {
			t.Fatal(err)
		}
		g.Paint(mesh.Box{X0: 0, X1: scale * 1e-6, Y0: 0, Y1: scale * 1e-6, Z0: 0, Z1: scale * 1e-6}, mat.Copper)
		m := NewModel(g, dT)
		for f := XMin; f <= ZMax; f++ {
			m.SetFaceBC(f, Roller)
		}
		res, err := m.Solve(SolveOptions{Tol: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		h, _ := res.HydrostaticAt(0, 0, 0)
		return h
	}
	s1, s2 := stress(1), stress(7.3)
	if math.Abs(s1-s2)/s1 > 1e-9 {
		t.Errorf("stress not scale-invariant: %g vs %g", s1, s2)
	}
}

// holeGrid builds a heterogeneous stack (Si / Cu / SiN) with a hole carved
// into the copper layer: material boundaries, excluded cells and mixed BCs
// in one small model.
func holeGrid(t *testing.T) *mesh.Grid {
	t.Helper()
	xs := mesh.Lines([]float64{0, 1e-6}, 0.125e-6, 1e-15)
	zs := mesh.Lines([]float64{0, 0.3e-6, 0.6e-6, 0.9e-6}, 0.1e-6, 1e-15)
	g, err := mesh.New(xs, xs, zs)
	if err != nil {
		t.Fatal(err)
	}
	g.Paint(mesh.Box{X0: 0, X1: 1e-6, Y0: 0, Y1: 1e-6, Z0: 0, Z1: 0.3e-6}, mat.Silicon)
	g.Paint(mesh.Box{X0: 0, X1: 1e-6, Y0: 0, Y1: 1e-6, Z0: 0.3e-6, Z1: 0.6e-6}, mat.Copper)
	g.Paint(mesh.Box{X0: 0, X1: 1e-6, Y0: 0, Y1: 1e-6, Z0: 0.6e-6, Z1: 0.9e-6}, mat.SiN)
	nx, ny, nz := g.CellDims()
	g.SetMaterial(nx/2, ny/2, nz/2, mat.None)
	return g
}

func holeModel(t *testing.T) *Model {
	m := NewModel(holeGrid(t), dT)
	m.SetFaceBC(XMin, Roller)
	m.SetFaceBC(XMax, Roller)
	m.SetFaceBC(YMin, Roller)
	m.SetFaceBC(ZMin, Clamp)
	return m
}

// TestPrecomputeStressMatchesLazy checks the cached per-cell recovery against
// the on-demand path bit for bit.
func TestPrecomputeStressMatchesLazy(t *testing.T) {
	m := holeModel(t)
	lazy, err := m.Solve(SolveOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := m.Solve(SolveOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	cached.PrecomputeStress()
	nx, ny, nz := m.Grid.CellDims()
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				sc, okc := cached.StressAt(i, j, k)
				sl, okl := lazy.StressAt(i, j, k)
				if okc != okl || sc != sl {
					t.Fatalf("cell (%d,%d,%d): cached %+v/%v, lazy %+v/%v", i, j, k, sc, okc, sl, okl)
				}
			}
		}
	}
}

// spanSink collects the labels of the span events a tracer flushes.
type spanSink struct{ labels []string }

func (s *spanSink) WriteEvents(events []trace.Event) error {
	for _, e := range events {
		if e.Type == trace.EvSpan {
			s.labels = append(s.labels, e.Label)
		}
	}
	return nil
}

func (s *spanSink) Close() error { return nil }

// TestSolveNotConvergedIsTraced checks that a solve whose CG hits its
// iteration limit still ends its fem.assemble and fem.cg spans and observes
// fem.solve_seconds, so the failure shows in the trace that fem.solves
// counted it in.
func TestSolveNotConvergedIsTraced(t *testing.T) {
	reg := telemetry.New()
	prevReg := telemetry.Default()
	telemetry.SetDefault(reg)
	defer telemetry.SetDefault(prevReg)
	sink := &spanSink{}
	tr := trace.New(trace.Options{Sinks: []trace.Sink{sink}})
	prevTr := trace.Default()
	trace.SetDefault(tr)
	defer trace.SetDefault(prevTr)

	_, err := holeModel(t).Solve(SolveOptions{Tol: 1e-12, MaxIter: 1})
	if !errors.Is(err, solver.ErrNotConverged) {
		t.Fatalf("Solve with MaxIter 1: error %v, want one wrapping solver.ErrNotConverged", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fem.assemble", "fem.cg"} {
		if !slices.Contains(sink.labels, want) {
			t.Errorf("no %s span recorded, spans %v", want, sink.labels)
		}
	}
	if got := reg.Counter(telemetry.FEMSolves).Value(); got != 1 {
		t.Errorf("fem.solves = %d, want 1", got)
	}
	if got := reg.Histogram(telemetry.FEMSolveSeconds).Snapshot().Count; got != 1 {
		t.Errorf("fem.solve_seconds has %d samples, want 1", got)
	}
}
