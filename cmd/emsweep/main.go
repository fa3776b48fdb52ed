// Command emsweep performs one-at-a-time sensitivity analysis of the
// stress-aware EM model: each physical parameter is perturbed by ±delta
// around its default and the resulting shift of the via-array TTF metrics
// is reported as a tornado table. Because most of the constants in
// equations (1)–(4) are foundry-confidential, knowing which of them the
// headline metrics actually hinge on is a prerequisite for trusting any
// absolute number.
//
// Usage:
//
//	emsweep [-delta 0.1] [-trials 400] [-array 4] [-fast] [-conc N] [-stresscache DIR]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"

	"emvia/internal/cliobs"
	"emvia/internal/core"
	"emvia/internal/cudd"
	"emvia/internal/mc"
	"emvia/internal/phys"
	"emvia/internal/profiling"
	"emvia/internal/stat"
)

type knob struct {
	name  string
	apply func(a *core.Analyzer, factor float64)
}

func knobs() []knob {
	return []knob{
		{"flaw radius Rf", func(a *core.Analyzer, f float64) { a.EM.RfMean *= f }},
		{"surface energy gamma_s", func(a *core.Analyzer, f float64) { a.EM.GammaS *= f }},
		{"activation energy Ea", func(a *core.Analyzer, f float64) { a.EM.Ea *= f }},
		{"bulk modulus B", func(a *core.Analyzer, f float64) { a.EM.Bulk *= f }},
		{"diffusivity D0", func(a *core.Analyzer, f float64) { a.EM.D0 *= f }},
		{"Deff spread sigma", func(a *core.Analyzer, f float64) { a.EM.DeffLogSigma *= f }},
		{"operating T (C)", func(a *core.Analyzer, f float64) { a.EM.TempC *= f }},
		{"stress-free T (C)", func(a *core.Analyzer, f float64) {
			a.Base.AnnealT *= f // changes ΔT and hence every σ_T
		}},
		{"package stress +20 MPa", func(a *core.Analyzer, f float64) {
			// Additive knob: f>1 adds tensile package stress, f<1 subtracts.
			if f > 1 {
				a.PackageStress += 20e6
			} else if f < 1 {
				a.PackageStress -= 20e6
			}
		}},
	}
}

func main() {
	delta := flag.Float64("delta", 0.10, "relative perturbation per knob")
	trials := flag.Int("trials", 400, "Monte-Carlo trials per evaluation")
	arrayN := flag.Int("array", 4, "via-array configuration n (n×n)")
	fast := flag.Bool("fast", false, "coarse FEA meshes")
	seed := flag.Int64("seed", 2017, "random seed")
	stressCache := flag.String("stresscache", "", `persistent stress cache: a directory, or "auto" for the default location (EMVIA_STRESS_CACHE or the user cache dir)`)
	conc := flag.Int("conc", 0, "knobs evaluated concurrently (0 = GOMAXPROCS)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	var obs cliobs.Config
	obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	prof, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "emsweep: %v\n", err)
		os.Exit(1)
	}
	finishObs, err := cliobs.Setup(obs, "emsweep", flag.CommandLine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "emsweep: %v\n", err)
		os.Exit(1)
	}
	// os.Exit skips deferred calls, so error paths below stop the profiles
	// explicitly through fatal.
	fatal := func(format string, a ...any) {
		prof.Stop()
		fmt.Fprintf(os.Stderr, format, a...)
		os.Exit(1)
	}
	engine, err := mc.ParseEngine(obs.Engine) // Setup already validated it
	if err != nil {
		fatal("emsweep: %v\n", err)
	}

	mkAnalyzer := func() *core.Analyzer {
		a := core.NewAnalyzer()
		if *fast {
			a.Base.Margin = 1.0 * phys.Micron
			a.Base.StepOutside = 0.5 * phys.Micron
			a.Base.StepZBulk = 1.0 * phys.Micron
		}
		if *stressCache != "" {
			dir := *stressCache
			if dir == "auto" {
				dir = "" // core resolves the env/user-cache default
			}
			if err := a.EnableStressCache(dir); err != nil {
				fatal("emsweep: %v\n", err)
			}
		}
		return a
	}
	eval := func(a *core.Analyzer) (median, worst float64, err error) {
		c, err := a.CharacterizeViaArray(cudd.Plus, *arrayN, a.Base.WireWidth, 1e10,
			core.ArrayOpenCircuit(), *trials, *seed)
		if err != nil {
			return 0, 0, err
		}
		e, err := stat.NewECDF(c.Result.Samples)
		if err != nil {
			return 0, 0, err
		}
		return phys.SecondsToYears(e.Percentile(0.5)), phys.SecondsToYears(e.Percentile(0.003)), nil
	}
	// screenEval is the linear-time steady-state screen of the same array:
	// the tightest per-via stress margin (MPa, ≤0 = mortal) and the mortal
	// via count. -engine=steady sweeps this margin instead of the
	// Monte-Carlo TTF; -engine=both reports both.
	screenEval := func(a *core.Analyzer) (marginMPa float64, mortal int, err error) {
		s, err := a.ArraySteadyScreen(cudd.Plus, *arrayN, a.Base.WireWidth, 1e10)
		if err != nil {
			return 0, 0, err
		}
		tightest := math.Inf(1)
		for _, m := range s.ViaMargin {
			if m < tightest {
				tightest = m
			}
		}
		return tightest / 1e6, s.MortalVias, nil
	}

	if engine == mc.EngineSteady {
		steadySweep(mkAnalyzer, screenEval, *arrayN, *delta, fatal)
		if err := prof.Stop(); err != nil {
			fatal("emsweep: %v\n", err)
		}
		if err := finishObs(); err != nil {
			fatal("emsweep: %v\n", err)
		}
		return
	}

	aBase := mkAnalyzer()
	baseMed, baseWorst, err := eval(aBase)
	if err != nil {
		fatal("emsweep: baseline: %v\n", err)
	}
	fmt.Printf("baseline %dx%d Plus array (R=inf): median %.2f y, worst-case %.2f y\n",
		*arrayN, *arrayN, baseMed, baseWorst)
	if engine == mc.EngineBoth {
		margin, mortal, err := screenEval(aBase)
		if err != nil {
			fatal("emsweep: baseline screen: %v\n", err)
		}
		fmt.Printf("baseline steady screen: %d/%d vias mortal, tightest margin %.1f MPa\n",
			mortal, *arrayN**arrayN, margin)
	}
	fmt.Println()

	type row struct {
		name               string
		lowMed, hiMed      float64
		swingMedianPct     float64
		loMortal, hiMortal int
	}
	// Knobs are independent — every evaluation builds its own analyzer — so
	// they run concurrently under a worker cap. Results and skip diagnostics
	// are collected per index and emitted in knob order, keeping the output
	// identical to a serial sweep.
	ks := knobs()
	type knobResult struct {
		med    [2]float64
		mortal [2]int
		skip   string
	}
	results := make([]knobResult, len(ks))
	nconc := *conc
	if nconc <= 0 {
		nconc = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, nconc)
	var wg sync.WaitGroup
	for i, k := range ks {
		wg.Add(1)
		go func(i int, k knob) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			for s, f := range []float64{1 - *delta, 1 + *delta} {
				a := mkAnalyzer()
				k.apply(a, f)
				m, _, err := eval(a)
				if err != nil {
					results[i].skip = fmt.Sprintf("emsweep: %s ×%.2f: %v (skipped)", k.name, f, err)
					return
				}
				results[i].med[s] = m
				if engine == mc.EngineBoth {
					// The FEA cache of a is warm after eval, so the
					// screen costs one linear solve.
					_, mortal, err := screenEval(a)
					if err != nil {
						results[i].skip = fmt.Sprintf("emsweep: %s ×%.2f screen: %v (skipped)", k.name, f, err)
						return
					}
					results[i].mortal[s] = mortal
				}
			}
		}(i, k)
	}
	wg.Wait()
	var rows []row
	for i, k := range ks {
		r := results[i]
		if r.skip != "" {
			fmt.Fprintln(os.Stderr, r.skip)
			continue
		}
		rows = append(rows, row{
			name:           k.name,
			lowMed:         r.med[0],
			hiMed:          r.med[1],
			swingMedianPct: 100 * math.Abs(r.med[1]-r.med[0]) / baseMed,
			loMortal:       r.mortal[0],
			hiMortal:       r.mortal[1],
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].swingMedianPct > rows[j].swingMedianPct })

	if engine == mc.EngineBoth {
		fmt.Printf("%-26s %12s %12s %10s %13s\n", "parameter (±"+fmt.Sprintf("%.0f%%", *delta*100)+")", "-delta (y)", "+delta (y)", "swing", "mortal vias")
		for _, r := range rows {
			fmt.Printf("%-26s %12.2f %12.2f %9.1f%% %8d→%-4d\n", r.name, r.lowMed, r.hiMed, r.swingMedianPct, r.loMortal, r.hiMortal)
		}
	} else {
		fmt.Printf("%-26s %12s %12s %10s\n", "parameter (±"+fmt.Sprintf("%.0f%%", *delta*100)+")", "-delta (y)", "+delta (y)", "swing")
		for _, r := range rows {
			fmt.Printf("%-26s %12.2f %12.2f %9.1f%%\n", r.name, r.lowMed, r.hiMed, r.swingMedianPct)
		}
	}
	fmt.Println("\nswing = |median(+delta) − median(−delta)| / baseline median")
	if err := prof.Stop(); err != nil {
		fatal("emsweep: %v\n", err)
	}
	if err := finishObs(); err != nil {
		fatal("emsweep: %v\n", err)
	}
}

// steadySweep is the -engine=steady tornado: each knob's effect on the
// tightest steady-state via stress margin of the array. No Monte Carlo runs
// at all — every evaluation is one FEA pre-stress solve plus one linear
// network solve, so the whole sweep is seconds, not minutes.
func steadySweep(mkAnalyzer func() *core.Analyzer, screenEval func(*core.Analyzer) (float64, int, error), arrayN int, delta float64, fatal func(string, ...any)) {
	baseMargin, baseMortal, err := screenEval(mkAnalyzer())
	if err != nil {
		fatal("emsweep: baseline screen: %v\n", err)
	}
	fmt.Printf("baseline %dx%d Plus array steady screen: %d/%d vias mortal, tightest margin %.1f MPa\n\n",
		arrayN, arrayN, baseMortal, arrayN*arrayN, baseMargin)
	type row struct {
		name   string
		lo, hi float64
		swing  float64
	}
	var rows []row
	for _, k := range knobs() {
		var m [2]float64
		skipped := false
		for s, f := range []float64{1 - delta, 1 + delta} {
			a := mkAnalyzer()
			k.apply(a, f)
			mm, _, err := screenEval(a)
			if err != nil {
				fmt.Fprintf(os.Stderr, "emsweep: %s ×%.2f: %v (skipped)\n", k.name, f, err)
				skipped = true
				break
			}
			m[s] = mm
		}
		if skipped {
			continue
		}
		rows = append(rows, row{k.name, m[0], m[1], math.Abs(m[1] - m[0])})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].swing > rows[j].swing })
	fmt.Printf("%-26s %14s %14s %12s\n",
		fmt.Sprintf("parameter (±%.0f%%)", delta*100), "-delta (MPa)", "+delta (MPa)", "swing (MPa)")
	for _, r := range rows {
		fmt.Printf("%-26s %14.1f %14.1f %12.1f\n", r.name, r.lo, r.hi, r.swing)
	}
	fmt.Println("\nswing = |margin(+delta) − margin(−delta)| of the tightest steady-state via stress margin")
}
