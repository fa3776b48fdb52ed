package pdn

import (
	"context"
	"math"
	"strconv"
	"testing"

	"emvia/internal/cudd"
	"emvia/internal/mc"
	"emvia/internal/spice"
	"emvia/internal/telemetry"
)

// islandGrid generates an nx×nx grid and hangs one extra load node off a
// lower-layer node by a single via array: failing that array islands the
// load, leaving it tied to the rest of the system only by the gmin leak.
// It returns the grid and the index of the islanding array in g.Vias.
func islandGrid(t *testing.T, nx int) (*Grid, int) {
	t.Helper()
	spec := PG1Spec()
	spec.NX, spec.NY = nx, nx
	spec.PadPeriod = 3
	g := mustGrid(t, spec, 0)
	nl := g.Netlist
	nl.Resistors = append(nl.Resistors, spice.Resistor{Name: "Rvisland", A: "nisland", B: nodeName(1, nx/2, 1), Ohms: spec.ViaArrayR})
	nl.Currents = append(nl.Currents, spice.CurrentSource{Name: "Iisland", A: "nisland", B: "0", Amps: nl.Currents[0].Amps})
	g.Vias = append(g.Vias, ViaInfo{IX: nx / 2, IY: 1, Pattern: cudd.Plus, ResistorIndex: len(nl.Resistors) - 1})
	if err := g.CalibrateLoad(0.05); err != nil {
		t.Fatal(err)
	}
	return g, len(g.Vias) - 1
}

// TestCascadeMatchesFreshSolve is the accuracy check of factor-once
// cascades: after every failure of an IR-drop cascade the operating point
// must agree with a fresh factor-and-solve of the edited matrix, and its
// KCL residual against that matrix must stay at 1e-10. It runs on the
// scalar sparse backend (fewer than 2048 free nodes), at the paper's grid
// size and above, and on the supernodal one, with failures at pad vias (a pinned terminal moves the right-hand side)
// and one failure that islands a load, which must take the
// refactor-and-solve fallback.
func TestCascadeMatchesFreshSolve(t *testing.T) {
	for _, tc := range []struct {
		name string
		nx   int
	}{{"paper", 8}, {"scalar", 16}, {"supernodal", 34}} {
		t.Run(tc.name, func(t *testing.T) {
			g, island := islandGrid(t, tc.nx)
			s, err := NewSystem(TTFConfig{Grid: g, Models: testModels(refCurrentOf(t, g)), Criterion: IRDrop, IRDropFrac: 0.10})
			if err != nil {
				t.Fatal(err)
			}
			if s.cascade == nil {
				t.Fatalf("no cascade on backend %s", s.circuit.SolverBackend())
			}
			if nf := s.circuit.NumFree(); (nf >= 2048) != (tc.name == "supernodal") {
				t.Fatalf("%d free nodes do not select the %s factor", nf, tc.name)
			}
			// Interior and edge arrays, two of them under pads (index
			// iy·nx+ix with ix, iy ≡ 1 mod 3), then the island, then one more.
			nx := tc.nx
			order := []int{nx + 1, 5*nx + 7, 4*nx + 4, 2*nx + min(9, nx-1), 7*nx + 1, nx*nx - 2, 3*nx + min(12, nx-1), island, 6*nx + 6}
			if err := s.BeginTrial(randNew(1)); err != nil {
				t.Fatal(err)
			}
			var failed []int
			for step, k := range order {
				if err := s.Fail(k); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				failed = append(failed, k)
				if got, want := s.cascade.fallback, step >= len(order)-2; got != want {
					t.Fatalf("step %d (array %d): fallback %v, want %v", step, k, got, want)
				}
				ref, err := spice.Compile(g.Netlist)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ref.SolveDC(nil); err != nil {
					t.Fatal(err)
				}
				for _, f := range failed {
					if err := ref.DisableResistor(g.Vias[f].ResistorIndex); err != nil {
						t.Fatal(err)
					}
				}
				want, err := ref.SolveDC(nil)
				if err != nil {
					t.Fatal(err)
				}
				res, err := ref.Residual(s.opNow)
				if err != nil {
					t.Fatal(err)
				}
				worst := 0.0
				for i := 0; i < ref.NumNodes(); i++ {
					a, b := s.opNow.VoltageAt(i), want.VoltageAt(i)
					worst = math.Max(worst, math.Abs(a-b)/(1+math.Abs(b)))
				}
				t.Logf("step %d (array %d): residual %.2e, worst deviation %.2e", step, k, res, worst)
				if res > 1e-10 {
					t.Errorf("step %d (array %d): KCL residual %g, want ≤ 1e-10", step, k, res)
				}
				if worst > 1e-10 {
					t.Errorf("step %d (array %d): deviates from a fresh solve by %g, want ≤ 1e-10", step, k, worst)
				}
			}
			if failed, _ := s.Failed(); !failed {
				t.Error("islanding a load did not breach the IR-drop criterion")
			}
			// The next trial starts back on the update path, from the
			// pristine point.
			if err := s.BeginTrial(randNew(2)); err != nil {
				t.Fatal(err)
			}
			if s.cascade.fallback || s.circuitDirty {
				t.Fatal("BeginTrial did not restore the pristine cascade state")
			}
			if err := s.Fail(order[0]); err != nil {
				t.Fatal(err)
			}
			if s.cascade.fallback {
				t.Fatal("first failure of a fresh trial fell back")
			}
		})
	}
}

// TestCascadeWorkerBitIdentity runs IR-drop Monte Carlo on the shared
// pristine factor at 1, 2 and 4 workers — every worker a Clone of one master
// — and demands bit-identical trials. Under -race it also shows that the
// clones' concurrent edge solves only read the shared factor. The cascade
// counters must account for every failure as one edge solve.
func TestCascadeWorkerBitIdentity(t *testing.T) {
	for _, tc := range []struct {
		name string
		nx   int
	}{{"paper", 8}, {"scalar", 16}, {"supernodal", 34}} {
		t.Run(tc.name, func(t *testing.T) {
			spec := PG1Spec()
			spec.NX, spec.NY = tc.nx, tc.nx
			spec.PadPeriod = 3
			g := mustGrid(t, spec, 0)
			const refViaAmps = 0.02
			if err := g.Tune(0.07, refViaAmps); err != nil {
				t.Fatal(err)
			}
			cfg := TTFConfig{Grid: g, Models: testModels(refViaAmps), Criterion: IRDrop, IRDropFrac: 0.10}
			reg := telemetry.New()
			telemetry.SetDefault(reg)
			defer telemetry.SetDefault(nil)
			var ref *mc.Result
			for _, w := range []int{1, 2, 4} {
				edge0 := reg.Counter(telemetry.SpiceCascadeEdgeSolves).Value()
				res, err := AnalyzeTTFCtx(context.Background(), cfg, 8, 5, mc.Options{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				want := "sparse"
				if tc.name == "supernodal" {
					want = "supernodal"
				}
				if res.Solver != want {
					t.Fatalf("ran on the %s backend, want %s", res.Solver, want)
				}
				// Every failure is one update on the shared factor; none of
				// these cascades islands a node, so nothing refactors.
				events := 0
				for _, ev := range res.Events {
					events += len(ev)
				}
				if got := reg.Counter(telemetry.SpiceCascadeEdgeSolves).Value() - edge0; got != int64(events) {
					t.Fatalf("workers=%d: %d edge solves for %d failures", w, got, events)
				}
				if got := reg.Counter(telemetry.SpiceCascadeRefactors).Value(); got != 0 {
					t.Fatalf("workers=%d: %d cascade refactors, want 0", w, got)
				}
				if ref == nil {
					ref = res
					if events <= len(res.TTF) {
						t.Fatalf("%d failures over %d trials: the cascades never got past one failure", events, len(res.TTF))
					}
					continue
				}
				label := "workers=" + strconv.Itoa(w)
				for i := range ref.TTF {
					if math.Float64bits(res.TTF[i]) != math.Float64bits(ref.TTF[i]) {
						t.Fatalf("%s: trial %d TTF %g, want %g (not bit-identical)", label, i, res.TTF[i], ref.TTF[i])
					}
					if len(res.Events[i]) != len(ref.Events[i]) {
						t.Fatalf("%s: trial %d has %d events, want %d", label, i, len(res.Events[i]), len(ref.Events[i]))
					}
					for j := range ref.Events[i] {
						if math.Float64bits(res.Events[i][j]) != math.Float64bits(ref.Events[i][j]) || res.EventComps[i][j] != ref.EventComps[i][j] {
							t.Fatalf("%s: trial %d event %d differs", label, i, j)
						}
					}
				}
			}
		})
	}
}

// TestPristineResidual guards the operating point every analysis starts
// from: the KCL residual of NewSystem's pristine solve must sit at rounding
// level on the grid sizes the paper figures run (PG1 at nx8 and nx10) and
// on the full PG1, PG2 and PG5 analogues, which cover both the scalar and
// the supernodal factor.
func TestPristineResidual(t *testing.T) {
	withNX := func(spec GridSpec, nx int) GridSpec {
		spec.NX, spec.NY = nx, nx
		return spec
	}
	for _, tc := range []struct {
		name string
		spec GridSpec
	}{
		{"PG1_nx8", withNX(PG1Spec(), 8)},
		{"PG1_nx10", withNX(PG1Spec(), 10)},
		{"PG1", PG1Spec()},
		{"PG2", PG2Spec()},
		{"PG5", PG5Spec()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := mustGrid(t, tc.spec, 0)
			const refViaAmps = 0.02
			if err := g.Tune(0.065, refViaAmps); err != nil {
				t.Fatal(err)
			}
			s, err := NewSystem(TTFConfig{Grid: g, Models: testModels(refViaAmps), Criterion: IRDrop, IRDropFrac: 0.10})
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.circuit.Residual(s.op0)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d free nodes (%s): pristine residual %.2e", s.circuit.NumFree(), s.circuit.SolverBackend(), res)
			if res > 1e-12 {
				t.Errorf("pristine KCL residual %g, want ≤ 1e-12", res)
			}
		})
	}
}
