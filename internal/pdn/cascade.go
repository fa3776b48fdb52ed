package pdn

import (
	"math"
	"slices"

	"emvia/internal/spice"
)

// cascadeMinPivot is the smallest |1 + dg·uᵀw| a Sherman–Morrison update
// accepts. The pivot equals R_e/(R_e + R_rest), the opened via's share of
// the resistance around the loop it closes. Ordinary grid failures keep it
// well above 1e-3. A failure that islands a node leaves only the gmin leak
// to close the loop, which drives the pivot down to about gmin·R_e ≈ 1e-12,
// and the update would amplify rounding by its inverse.
const cascadeMinPivot = 1e-6

// cascade runs the IR-drop failure cascade of one trial against the shared
// pristine sparse factor A₀, without ever editing the circuit. Opening
// resistor e is the rank-one edit A → A + dg·u·uᵀ with dg = −g_e and
// u = e_a − e_b over the free nodes. With every earlier update i of the
// trial folded into A⁻¹ = A₀⁻¹ − Σ cᵢ·wᵢ·wᵢᵀ, the update of failure e is
//
//	w    = z_e − Σᵢ cᵢ·wᵢ·(wᵢᵀu),  z_e = A₀⁻¹·u  (one edge solve)
//	x   ← x − dg·(uᵀx + v_a − v_b)/(1 + dg·uᵀw) · w
//	c_e  = dg/(1 + dg·uᵀw)
//
// where v_a, v_b are the pinned voltages of pad terminals (0 for free or
// ground ones): removing a pad's stamp also moves the right-hand side.
// A pivot below cascadeMinPivot sends the rest of the trial to
// refactor-and-solve on the edited circuit (GridSystem.redistribute).
type cascade struct {
	x0       []float64 // pristine free-node solution; shared read-only by clones
	x        []float64 // free-node solution of the running trial
	w        []float64 // correction vectors wᵢ of the trial's updates, stacked
	c        []float64 // cᵢ, one per update
	z        []float64 // edge-solve scratch, all-zero between calls
	fallback bool      // the trial left the update path
}

// newCascade seeds a cascade with the pristine operating point of circuit.
func newCascade(circuit *spice.Circuit, op0 *spice.OP) (*cascade, error) {
	x0 := make([]float64, circuit.NumFree())
	if err := circuit.GatherFree(x0, op0); err != nil {
		return nil, err
	}
	return &cascade{x0: x0}, nil
}

// clone returns an idle cascade sharing the pristine solution; its trial
// buffers are allocated by the first begin.
func (k *cascade) clone() *cascade { return &cascade{x0: k.x0} }

// begin resets the cascade to the pristine solution for a new trial.
func (k *cascade) begin() {
	if k.x == nil {
		k.x = make([]float64, len(k.x0))
		k.z = make([]float64, len(k.x0))
	}
	copy(k.x, k.x0)
	k.c = k.c[:0]
	k.fallback = false
}

// open applies the failure of resistor ri to the trial's solution. It
// reports false, leaving the solution untouched, when the pivot is below
// cascadeMinPivot.
func (k *cascade) open(circuit *spice.Circuit, ri int) (bool, error) {
	fa, fb, va, vb := circuit.ResistorTerms(ri)
	g := circuit.ResistorConductance(ri)
	if g == 0 || (fa < 0 && fb < 0) {
		return true, nil // the free system does not change
	}
	n, m := len(k.x), len(k.c)
	k.w = slices.Grow(k.w[:m*n], n)[:(m+1)*n]
	w := k.w[m*n:]
	if err := circuit.SolveEdge(w, ri, k.z); err != nil {
		return false, err
	}
	for i := 0; i < m; i++ {
		wi := k.w[i*n : (i+1)*n]
		if d := edgeDot(wi, fa, fb); d != 0 {
			s := k.c[i] * d
			for j, v := range wi {
				w[j] -= s * v
			}
		}
	}
	dg := -g
	pivot := 1 + dg*edgeDot(w, fa, fb)
	if math.Abs(pivot) < cascadeMinPivot {
		return false, nil
	}
	coef := dg * (edgeDot(k.x, fa, fb) + va - vb) / pivot
	for j, v := range w {
		k.x[j] -= coef * v
	}
	k.c = append(k.c, dg/pivot)
	return true, nil
}

// edgeDot returns uᵀx for u = e_fa − e_fb (negative terminals drop out).
func edgeDot(x []float64, fa, fb int) float64 {
	v := 0.0
	if fa >= 0 {
		v += x[fa]
	}
	if fb >= 0 {
		v -= x[fb]
	}
	return v
}
