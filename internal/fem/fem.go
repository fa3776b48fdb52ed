// Package fem implements the 3-D linear thermoelastic finite-element solver
// used to precharacterize thermomechanical stress (σ_T) in Cu dual-damascene
// structures — the role played by ABAQUS in the DAC'17 paper.
//
// The discretization uses 8-node trilinear hexahedra on the rectilinear
// meshes of package mesh, with 2×2×2 Gauss quadrature, isotropic materials
// from package mat, and a uniform temperature change ΔT applied as an
// equivalent thermal-strain load. Boundary conditions are per-face: clamped
// (all displacement components zero) or roller/symmetry (normal component
// zero). The assembled stiffness system is solved by preconditioned
// conjugate gradients on the shared sparse stack.
//
// Stress is recovered at element centers; the quantity of interest for EM is
// the hydrostatic stress σ_H = (σxx+σyy+σzz)/3 (positive = tensile).
package fem

import (
	"fmt"

	"emvia/internal/mat"
	"emvia/internal/mesh"
	"emvia/internal/solver"
	"emvia/internal/telemetry"
	"emvia/internal/trace"
)

// Face names one of the six boundary faces of the rectilinear domain.
type Face int

// Boundary faces.
const (
	XMin Face = iota
	XMax
	YMin
	YMax
	ZMin
	ZMax
	numFaces
)

// String returns a short face name.
func (f Face) String() string {
	switch f {
	case XMin:
		return "x-"
	case XMax:
		return "x+"
	case YMin:
		return "y-"
	case YMax:
		return "y+"
	case ZMin:
		return "z-"
	case ZMax:
		return "z+"
	}
	return fmt.Sprintf("fem.Face(%d)", int(f))
}

// BC is the boundary-condition kind applied to a face.
type BC int

// Face boundary-condition kinds.
const (
	// Free leaves the face traction-free (natural BC, the default).
	Free BC = iota
	// Roller constrains the displacement component normal to the face
	// (symmetry plane: models the structure continuing periodically).
	Roller
	// Clamp constrains all three displacement components on the face.
	Clamp
)

// Model is a thermoelastic FE problem: a painted grid, a uniform temperature
// change and per-face boundary conditions.
type Model struct {
	Grid *mesh.Grid
	// DeltaT is the uniform temperature change in K (operating −
	// stress-free temperature; negative after cool-down from anneal).
	DeltaT float64

	faceBC [numFaces]BC
}

// NewModel wraps a painted grid with a temperature change. All faces start
// Free; callers set boundary conditions before Solve.
func NewModel(g *mesh.Grid, deltaT float64) *Model {
	return &Model{Grid: g, DeltaT: deltaT}
}

// SetFaceBC assigns the boundary condition of a face.
func (m *Model) SetFaceBC(f Face, bc BC) {
	if f < 0 || f >= numFaces {
		panic(fmt.Sprintf("fem: invalid face %d", int(f)))
	}
	m.faceBC[f] = bc
}

// FaceBC returns the boundary condition of a face.
func (m *Model) FaceBC(f Face) BC { return m.faceBC[f] }

// SolveOptions tunes the linear solve.
type SolveOptions struct {
	// Tol is the relative residual tolerance (default 1e-8; stresses are
	// insensitive below this for the element counts used here).
	Tol float64
	// MaxIter bounds CG iterations (default 20·sqrt(dofs)+2000).
	MaxIter int
	// Precond overrides the preconditioner choice: "auto" (default),
	// "jacobi", "ic0" or "none". Used by the ablation benchmarks.
	Precond string
}

// Result holds the displacement solution and exposes stress recovery.
type Result struct {
	// U is the full displacement vector, 3 entries per node (x fastest).
	U []float64
	// Stats reports the CG iteration count and final residual.
	Stats solver.Stats
	// NNZ is the number of stored nonzeros of the assembled stiffness
	// matrix over the free DOFs.
	NNZ int

	model *Model

	// Element-centre stress cache filled by PrecomputeStress; nil until
	// then (StressAt computes on demand in that case).
	sig   []Tensor
	sigOK []bool
}

// Solve assembles and solves the thermoelastic system. A failed solve is
// still timed and traced: every path ends the fem.assemble and fem.cg spans
// it opened and observes fem.solve_seconds, which fem.solves counted.
func (m *Model) Solve(opt SolveOptions) (*Result, error) {
	reg := telemetry.Default()
	reg.Counter(telemetry.FEMSolves).Inc()
	solve0 := reg.Histogram(telemetry.FEMSolveSeconds).Start()
	defer reg.Histogram(telemetry.FEMSolveSeconds).ObserveSince(solve0)

	asm0 := reg.Histogram(telemetry.FEMAssemblySeconds).Start()
	asmSpan := trace.Default().Span("fem.assemble")
	asm, err := m.assemble()
	asmSpan()
	reg.Histogram(telemetry.FEMAssemblySeconds).ObserveSince(asm0)
	if err != nil {
		return nil, err
	}
	a, rhs, eq, nEq := asm.a, asm.rhs, asm.eq, asm.nEq

	tol := opt.Tol
	if tol == 0 {
		tol = 1e-8
	}
	maxIter := opt.MaxIter
	if maxIter == 0 {
		maxIter = 20*isqrt(nEq) + 2000
	}
	var pre solver.Preconditioner
	switch opt.Precond {
	case "", "auto":
		pre = solver.NewAutoPreconditioner(a)
	case "jacobi":
		j, err := solver.NewJacobi(a)
		if err != nil {
			return nil, fmt.Errorf("fem: jacobi preconditioner: %w", err)
		}
		pre = j
	case "ic0":
		ic, err := solver.NewIC0(a)
		if err != nil {
			return nil, fmt.Errorf("fem: ic0 preconditioner: %w", err)
		}
		pre = ic
	case "none":
		pre = solver.Identity{}
	default:
		return nil, fmt.Errorf("fem: unknown preconditioner %q", opt.Precond)
	}

	cgSpan := trace.Default().Span("fem.cg")
	x, st, err := solver.CG(a, rhs, solver.Options{Tol: tol, MaxIter: maxIter, M: pre})
	cgSpan()
	if err != nil {
		return nil, fmt.Errorf("fem: linear solve: %w", err)
	}

	ndof := 3 * m.Grid.NumNodes()
	u := make([]float64, ndof)
	for d := 0; d < ndof; d++ {
		if eq[d] >= 0 {
			u[d] = x[eq[d]]
		}
	}
	return &Result{U: u, Stats: st, NNZ: a.NNZ(), model: m}, nil
}

// activeNodes marks nodes adjacent to at least one non-None cell.
func (m *Model) activeNodes() []bool {
	g := m.Grid
	active := make([]bool, g.NumNodes())
	nx, ny, nz := g.CellDims()
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				if g.Material(i, j, k) == mat.None {
					continue
				}
				for _, n := range g.CellNodes(i, j, k) {
					active[n] = true
				}
			}
		}
	}
	return active
}

// constrainedDOFs marks DOFs fixed by the face boundary conditions.
func (m *Model) constrainedDOFs(active []bool) []bool {
	g := m.Grid
	nnx, nny, nnz := g.NodeDims()
	constrained := make([]bool, 3*g.NumNodes())
	mark := func(node int, f Face) {
		switch m.faceBC[f] {
		case Clamp:
			constrained[3*node] = true
			constrained[3*node+1] = true
			constrained[3*node+2] = true
		case Roller:
			switch f {
			case XMin, XMax:
				constrained[3*node] = true
			case YMin, YMax:
				constrained[3*node+1] = true
			case ZMin, ZMax:
				constrained[3*node+2] = true
			}
		}
	}
	for k := 0; k < nnz; k++ {
		for j := 0; j < nny; j++ {
			for i := 0; i < nnx; i++ {
				n := g.NodeID(i, j, k)
				if !active[n] {
					continue
				}
				if i == 0 {
					mark(n, XMin)
				}
				if i == nnx-1 {
					mark(n, XMax)
				}
				if j == 0 {
					mark(n, YMin)
				}
				if j == nny-1 {
					mark(n, YMax)
				}
				if k == 0 {
					mark(n, ZMin)
				}
				if k == nnz-1 {
					mark(n, ZMax)
				}
			}
		}
	}
	return constrained
}

func isqrt(n int) int {
	if n <= 0 {
		return 0
	}
	x := n
	y := (x + 1) / 2
	for y < x {
		x = y
		y = (x + n/x) / 2
	}
	return x
}
