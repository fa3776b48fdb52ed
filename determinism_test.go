// Cross-package determinism matrix: one table test asserting that every
// parallel execution path in the pipeline — the Monte-Carlo engine at both
// hierarchy levels — returns results bit-identical to the serial path from
// the same seed, for a spread of worker counts. The per-package tests pin individual kernels; this test
// pins the composed pipeline, so a future scheduling-dependent reduction
// anywhere in the stack fails loudly.
package emvia_test

import (
	"math"
	"strconv"
	"testing"

	"emvia/internal/cudd"
	"emvia/internal/mc"
	"emvia/internal/pdn"
	"emvia/internal/phys"
	"emvia/internal/stat"
	"emvia/internal/viaarray"
)

// mcWorkerCounts is the worker matrix for the Monte-Carlo engine; it spans
// fewer-than, equal-to, and more-than the trial-batch sweet spots, including
// worker counts that exceed GOMAXPROCS on small machines.
var mcWorkerCounts = []int{1, 2, 4, 8}

// requireSameResult asserts exact (bit-level) equality of two mc.Results.
func requireSameResult(t *testing.T, label string, got, want *mc.Result) {
	t.Helper()
	if len(got.TTF) != len(want.TTF) {
		t.Fatalf("%s: %d trials, want %d", label, len(got.TTF), len(want.TTF))
	}
	for i := range want.TTF {
		if got.TTF[i] != want.TTF[i] && !(math.IsInf(got.TTF[i], 1) && math.IsInf(want.TTF[i], 1)) {
			t.Fatalf("%s: trial %d TTF %g, want %g (not bit-identical)", label, i, got.TTF[i], want.TTF[i])
		}
		if len(got.Events[i]) != len(want.Events[i]) {
			t.Fatalf("%s: trial %d has %d events, want %d", label, i, len(got.Events[i]), len(want.Events[i]))
		}
		for j := range want.Events[i] {
			if got.Events[i][j] != want.Events[i][j] {
				t.Fatalf("%s: trial %d event %d at t=%g, want %g (not bit-identical)",
					label, i, j, got.Events[i][j], want.Events[i][j])
			}
			if got.EventComps[i][j] != want.EventComps[i][j] {
				t.Fatalf("%s: trial %d event %d failed component %d, want %d",
					label, i, j, got.EventComps[i][j], want.EventComps[i][j])
			}
		}
	}
}

// TestDeterminismMatrixViaArrayMC pins level 1 of Algorithm 1: serial mc.Run
// over a via-array system is the reference, and mc.RunParallel must match it
// bit for bit at every worker count.
func TestDeterminismMatrixViaArrayMC(t *testing.T) {
	cfg := ablationConfig(4, 16)
	opt := mc.Options{Trials: 40, Seed: 42, RunToCompletion: true}

	sys, err := viaarray.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mc.Run(sys, opt)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}

	for _, w := range mcWorkerCounts {
		popt := opt
		popt.Workers = w
		res, err := mc.RunParallel(func() (mc.System, error) { return viaarray.New(cfg) }, popt)
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		requireSameResult(t, "viaarray Workers="+strconv.Itoa(w), res, ref)
	}
}

// TestDeterminismMatrixGridMC pins level 2 of Algorithm 1: the power-grid
// Monte Carlo (SPICE re-solves inside every trial) must be bit-identical
// between the serial engine and every parallel worker count.
func TestDeterminismMatrixGridMC(t *testing.T) {
	if testing.Short() {
		t.Skip("grid Monte Carlo is slow under -short")
	}
	spec := pdn.PG1Spec()
	spec.NX, spec.NY = 6, 6
	spec.PadPeriod = 3
	g, err := pdn.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	const refViaAmps = 0.065
	if err := g.Tune(0.05, refViaAmps); err != nil {
		t.Fatal(err)
	}
	mk := func(medYears float64) viaarray.TTFModel {
		return viaarray.TTFModel{
			Dist:       stat.LogNormal{Mu: math.Log(phys.YearsToSeconds(medYears)), Sigma: 0.35},
			RefCurrent: refViaAmps,
			FailK:      16,
		}
	}
	cfg := pdn.TTFConfig{
		Grid: g,
		Models: map[cudd.Pattern]viaarray.TTFModel{
			cudd.Plus:   mk(6),
			cudd.TShape: mk(7),
			cudd.LShape: mk(8),
		},
		Criterion:  pdn.IRDrop,
		IRDropFrac: 0.10,
	}
	opt := mc.Options{Trials: 12, Seed: 7}

	sys, err := pdn.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mc.Run(sys, opt)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}

	for _, w := range mcWorkerCounts {
		popt := opt
		popt.Workers = w
		res, err := mc.RunParallel(func() (mc.System, error) { return pdn.NewSystem(cfg) }, popt)
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		requireSameResult(t, "grid Workers="+strconv.Itoa(w), res, ref)
	}
}

// TestDeterminismMatrixGridMCSparse repeats the grid matrix on the sparse
// Cholesky backend with the production worker topology: one master system is
// compiled and factored, every parallel worker runs on a Clone of it (the
// AnalyzeTTF fast path), and the result must still match the serial engine
// bit for bit at every worker count.
func TestDeterminismMatrixGridMCSparse(t *testing.T) {
	if testing.Short() {
		t.Skip("grid Monte Carlo is slow under -short")
	}
	spec := pdn.PG1Spec()
	spec.NX, spec.NY = 6, 6
	spec.PadPeriod = 3
	g, err := pdn.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	const refViaAmps = 0.065
	if err := g.Tune(0.05, refViaAmps); err != nil {
		t.Fatal(err)
	}
	mk := func(medYears float64) viaarray.TTFModel {
		return viaarray.TTFModel{
			Dist:       stat.LogNormal{Mu: math.Log(phys.YearsToSeconds(medYears)), Sigma: 0.35},
			RefCurrent: refViaAmps,
			FailK:      16,
		}
	}
	cfg := pdn.TTFConfig{
		Grid: g,
		Models: map[cudd.Pattern]viaarray.TTFModel{
			cudd.Plus:   mk(6),
			cudd.TShape: mk(7),
			cudd.LShape: mk(8),
		},
		Criterion:  pdn.IRDrop,
		IRDropFrac: 0.10,
	}
	opt := mc.Options{Trials: 12, Seed: 7, Solver: "sparse"}

	sys, err := pdn.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mc.Run(sys, opt)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}

	for _, w := range mcWorkerCounts {
		master, err := pdn.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		popt := opt
		popt.Workers = w
		res, err := mc.RunParallel(func() (mc.System, error) { return master.Clone(), nil }, popt)
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		requireSameResult(t, "grid sparse Workers="+strconv.Itoa(w), res, ref)
	}
}

// TestDeterminismMatrixGridMCScreened pins the -engine=both path: the
// steady-state screen prunes the grid Monte Carlo to the mortal via subset,
// and the pruned run must be bit-identical between the serial engine and
// every parallel worker count — with zero mortal-set misses at each. The
// per-component substream seeding is what makes this hold: pruning changes
// which candidates sample, never what a surviving candidate draws.
func TestDeterminismMatrixGridMCScreened(t *testing.T) {
	if testing.Short() {
		t.Skip("grid Monte Carlo is slow under -short")
	}
	spec := pdn.PG1Spec()
	spec.NX, spec.NY = 6, 6
	spec.PadPeriod = 3
	g, err := pdn.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	const refViaAmps = 0.065
	if err := g.Tune(0.05, refViaAmps); err != nil {
		t.Fatal(err)
	}
	mk := func(medYears float64) viaarray.TTFModel {
		return viaarray.TTFModel{
			Dist:       stat.LogNormal{Mu: math.Log(phys.YearsToSeconds(medYears)), Sigma: 0.35},
			RefCurrent: refViaAmps,
			FailK:      16,
		}
	}
	cfg := pdn.TTFConfig{
		Grid: g,
		Models: map[cudd.Pattern]viaarray.TTFModel{
			cudd.Plus:   mk(6),
			cudd.TShape: mk(7),
			cudd.LShape: mk(8),
		},
		Criterion:  pdn.IRDrop,
		IRDropFrac: 0.10,
	}
	screen, err := pdn.ScreenGrid(g, pdn.ScreenConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if screen.MortalVias == 0 {
		t.Fatal("screen classified no via mortal; the pruned engine has nothing to run")
	}
	opt := mc.Options{Trials: 12, Seed: 7, Engine: mc.EngineBoth, Candidates: screen.CandidateMask()}

	sys, err := pdn.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mc.Run(sys, opt)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	if misses := ref.MaskMisses(screen.ViaMortal); len(misses) != 0 {
		t.Fatalf("serial screened run failed components outside the mortal set: %v", misses)
	}

	for _, w := range mcWorkerCounts {
		master, err := pdn.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		popt := opt
		popt.Workers = w
		res, err := mc.RunParallel(func() (mc.System, error) { return master.Clone(), nil }, popt)
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		requireSameResult(t, "grid screened Workers="+strconv.Itoa(w), res, ref)
		if misses := res.MaskMisses(screen.ViaMortal); len(misses) != 0 {
			t.Fatalf("Workers=%d: failures outside the mortal set: %v", w, misses)
		}
	}
}
