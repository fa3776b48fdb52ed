package cudd

import (
	"fmt"

	"emvia/internal/fem"
	"emvia/internal/mat"
	"emvia/internal/mesh"
)

// Result is the thermomechanical characterization of one via-array
// structure: the solved FE model plus the per-via peak tensile hydrostatic
// stress σ_T that the EM nucleation model consumes.
type Result struct {
	// Params echoes the (validated) structure parameters.
	Params Params
	// PeakSigmaT[j][i] is the peak hydrostatic stress (Pa) in the lower
	// metal Mx directly beneath via (i, j); vias nucleate voids at their
	// point of maximum stress (paper §2.3).
	PeakSigmaT [][]float64
	// FEM is the underlying solution, retained for line scans and plots.
	FEM *fem.Result
	// Grid is the painted mesh the solution lives on.
	Grid *mesh.Grid
}

// Characterize builds the structure, runs the thermoelastic FEA and extracts
// per-via peak stresses. It is the Go equivalent of one ABAQUS
// precharacterization run in the paper's flow.
func Characterize(p Params, opt fem.SolveOptions) (*Result, error) {
	g, p, err := Build(p)
	if err != nil {
		return nil, err
	}
	model := fem.NewModel(g, p.DeltaT())
	// The structure sits in a periodic power-grid neighbourhood: symmetry
	// rollers on the lateral faces, clamped substrate bottom, free top.
	model.SetFaceBC(fem.XMin, fem.Roller)
	model.SetFaceBC(fem.XMax, fem.Roller)
	model.SetFaceBC(fem.YMin, fem.Roller)
	model.SetFaceBC(fem.YMax, fem.Roller)
	model.SetFaceBC(fem.ZMin, fem.Clamp)
	res, err := model.Solve(opt)
	if err != nil {
		return nil, fmt.Errorf("cudd: FEA for %v %d×%d: %w", p.Pattern, p.ArrayN, p.ArrayN, err)
	}
	// The per-via tile boxes below overlap and the row scans revisit the
	// same cells, so recover every element-centre tensor once instead of per
	// query.
	res.PrecomputeStress()

	out := &Result{Params: p, FEM: res, Grid: g}
	st := p.stack()
	s := p.viaSide()
	out.PeakSigmaT = make([][]float64, p.ArrayN)
	for j := 0; j < p.ArrayN; j++ {
		out.PeakSigmaT[j] = make([]float64, p.ArrayN)
		for i := 0; i < p.ArrayN; i++ {
			vx, vy := p.ViaCenter(i, j)
			// Peak σ_H in the Mx copper within the via's tile: the footprint
			// plus half the inter-via gap on each side, so adjacent tiles
			// share the gap-centre stress maxima symmetrically. The 2 %
			// overshoot keeps boundary cells robustly included on both sides
			// despite floating-point rounding of feature coordinates. Depth:
			// top quarter of the Mx layer, where the Cu/Si3N4 flaw interface
			// sits.
			half := s/2 + 0.51*s // footprint half-side + half-gap (gap = s)
			box := mesh.Box{
				X0: vx - half, X1: vx + half,
				Y0: vy - half, Y1: vy + half,
				Z0: st.mxTop - 0.26*(st.mxTop-st.mxBot), Z1: st.mxTop,
			}
			peak, found := res.MaxHydrostaticInBox(box, mat.Copper)
			if !found {
				return nil, fmt.Errorf("cudd: no Mx copper under via (%d,%d)", i, j)
			}
			out.PeakSigmaT[j][i] = peak
		}
	}
	return out, nil
}

// RowScan returns the σ_H profile along x through via row j of the array,
// sampled in the top sub-layer of Mx (the scans of Figs 1, 6 and 7). The
// returned x coordinates are relative to the wire start (domain x=0).
func (r *Result) RowScan(j int) (xs, sigmaH []float64) {
	_, vy := r.Params.ViaCenter(0, j)
	st := r.Params.stack()
	z := st.mxTop - 0.02*(st.mxTop-st.mxBot)
	return r.FEM.LineScanX(vy, z)
}

// MaxPeak returns the largest per-via peak stress in the array.
func (r *Result) MaxPeak() float64 {
	best := r.PeakSigmaT[0][0]
	for _, row := range r.PeakSigmaT {
		for _, v := range row {
			if v > best {
				best = v
			}
		}
	}
	return best
}

// MinPeak returns the smallest per-via peak stress in the array (the most
// protected inner via).
func (r *Result) MinPeak() float64 {
	best := r.PeakSigmaT[0][0]
	for _, row := range r.PeakSigmaT {
		for _, v := range row {
			if v < best {
				best = v
			}
		}
	}
	return best
}

// PeakFlat returns the per-via peaks flattened row-major, the layout the
// via-array reliability model consumes.
func (r *Result) PeakFlat() []float64 {
	out := make([]float64, 0, len(r.PeakSigmaT)*len(r.PeakSigmaT))
	for _, row := range r.PeakSigmaT {
		out = append(out, row...)
	}
	return out
}
