package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"emvia/internal/cudd"
	"emvia/internal/mc"
	"emvia/internal/pdn"
	"emvia/internal/phys"
	"emvia/internal/spice"
	"emvia/internal/stat"
	"emvia/internal/telemetry"
	"emvia/internal/viaarray"
)

// grid_ir_mc: IR-drop sequential-failure Monte Carlo on a 120×120 deck
// (14 400 via arrays, 27 200 free nodes: the supernodal path). The deck is
// one fixed synthetic grid, tuned so an IR-drop trial takes about 4.5
// failures; the seed draws the Monte-Carlo seed of every job, so seeds
// change the sampled cascades but not the work per trial. The via-array
// models are fixed lognormals, so no FEA runs. A job has 64 trials, or one
// trial group per CPU where that is more, so the engine runs one worker
// per CPU (it starts no more workers than there are trial groups).
const (
	gmNX          = 120
	gmPadPeriod   = 3
	gmGridSeed    = 1
	gmNominalIR   = 0.068
	gmRefViaAmps  = 0.01
	gmIRCriterion = 0.10
	gmMinTrials   = 64
	gmSetupReps   = 7
)

// gmTrials is the trial count of every job.
func gmTrials() int { return max(gmMinTrials, mcGroupTrials*runtime.GOMAXPROCS(0)) }

// gmDeck synthesizes the deck text and the spec it is loaded with.
func gmDeck() ([]byte, pdn.GridSpec, error) {
	spec := pdn.PG1Spec()
	spec.Name = "nx120"
	spec.NX, spec.NY = gmNX, gmNX
	spec.PadPeriod = gmPadPeriod
	spec.Seed = gmGridSeed
	g, err := pdn.Generate(spec)
	if err != nil {
		return nil, spec, err
	}
	if err := g.Tune(gmNominalIR, gmRefViaAmps); err != nil {
		return nil, spec, err
	}
	var buf bytes.Buffer
	if err := g.Netlist.Write(&buf); err != nil {
		return nil, spec, err
	}
	return buf.Bytes(), spec, nil
}

// gmModels are the fixed per-pattern via-array TTF models.
func gmModels() map[cudd.Pattern]viaarray.TTFModel {
	mk := func(medianYears float64) viaarray.TTFModel {
		return viaarray.TTFModel{
			Dist:       stat.LogNormal{Mu: math.Log(phys.YearsToSeconds(medianYears)), Sigma: 0.35},
			RefCurrent: gmRefViaAmps,
			FailK:      16,
		}
	}
	return map[cudd.Pattern]viaarray.TTFModel{cudd.Plus: mk(6), cudd.TShape: mk(7), cudd.LShape: mk(8)}
}

// gmSetup parses the deck and builds the grid system through its pristine
// operating point — the set-up a user pays before the first trial. With a
// tracer it also compiles and solves the grid on its own, to time those
// steps apart from pdn.NewSystem.
func gmSetup(t *tracer, deck []byte, spec pdn.GridSpec) (*pdn.Grid, *pdn.GridSystem, error) {
	root := t.start("grid_ir_mc.setup", -1)
	defer root.end()
	s := t.start("pdn.load_deck", root.id)
	g, err := pdn.LoadDeck(bytes.NewReader(deck), spec)
	s.end()
	if err != nil {
		return nil, nil, err
	}
	if t != nil {
		s = t.start("spice.compile", root.id)
		c, err := spice.Compile(g.Netlist)
		s.end()
		if err != nil {
			return nil, nil, err
		}
		s = t.start("spice.pristine_solve", root.id)
		_, err = c.SolveDC(nil)
		s.end()
		if err != nil {
			return nil, nil, err
		}
	}
	s = t.start("pdn.new_system", root.id)
	sys, err := pdn.NewSystem(pdn.TTFConfig{Grid: g, Models: gmModels(), Criterion: pdn.IRDrop, IRDropFrac: gmIRCriterion})
	s.end()
	return g, sys, err
}

func gmOptions(seed int64, job int) mc.Options {
	return mc.Options{Trials: gmTrials(), Seed: seed*1000 + int64(job), TraceLabel: "grid:" + pdn.IRDrop.String()}
}

func runGridIRMC(r *benchRun) error {
	deck, spec, err := gmDeck()
	if err != nil {
		return fmt.Errorf("deck: %w", err)
	}
	var setupS []float64
	var grid *pdn.Grid
	var master *pdn.GridSystem
	for i := 0; i < gmSetupReps; i++ {
		t0 := time.Now()
		grid, master, err = gmSetup(nil, deck, spec)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	c, err := spice.Compile(grid.Netlist)
	if err != nil {
		return err
	}
	if _, err := c.SolveDC(nil); err != nil {
		return err
	}
	r.inputs["grids"] = []map[string]any{{"grid": spec.Name, "nx": spec.NX, "vias": len(grid.Vias), "free_nodes": c.NumFree(), "backend": c.SolverBackend(), "deck_bytes": len(deck)}}
	r.inputs["trials_per_job"] = gmTrials()
	r.inputs["mc_workers"] = mcWorkers(0, gmTrials())
	r.check(c.NumFree() >= 2048, "grid_ir_mc grid has %d free nodes, want at least 2048", c.NumFree())

	digests := map[int]string{}
	// job runs Monte-Carlo job i and checks its TTF digest against every
	// earlier run of the same job.
	job := func(t *tracer, sys *pdn.GridSystem, i int, opt mc.Options, what string) (*mc.Result, float64) {
		r.attempted++
		t0 := time.Now()
		res, err := runGridMC(t, -1, sys, opt)
		wall := time.Since(t0).Seconds()
		if err != nil {
			r.failed++
			r.check(false, "%s %d: %v", what, i, err)
			return nil, wall
		}
		r.check(len(res.FiniteTTF()) > 0, "%s %d: no trial reached the IR-drop criterion", what, i)
		d := digest(res)
		if want, ok := digests[i]; ok {
			r.check(d == want, "%s %d: TTF digest %s, earlier run of the same job gave %s", what, i, d, want)
		} else {
			digests[i] = d
		}
		return res, wall
	}

	if !r.trace {
		var walls []float64
		start := time.Now()
		err := repeatFor(r.seconds, 2, func(i int) error {
			_, wall := job(nil, master, i, gmOptions(r.seed, i), "job")
			walls = append(walls, wall)
			return nil
		})
		phase := time.Since(start).Seconds()
		if err != nil {
			return err
		}
		rss, err := peakRSSMB("self")
		if err != nil {
			return err
		}
		// Output checks outside the timed phase: the first job again, and
		// the same job on one worker.
		job(nil, master, 0, gmOptions(r.seed, 0), "repeated job")
		serial := gmOptions(r.seed, 0)
		serial.Workers = 1
		job(nil, master, 0, serial, "one-worker job")
		r.e2e["wall_s"] = median(walls)
		r.e2e["setup_s"] = median(setupS)
		r.e2e["jobs_per_s"] = float64(len(walls)) / phase
		r.e2e["job_p50_s"] = quantile(walls, 0.5)
		r.e2e["job_p75_s"] = quantile(walls, 0.75)
		r.e2e["peak_rss_mb"] = rss
		r.e2e["success_frac"] = float64(r.attempted-r.failed) / float64(r.attempted)
		r.inputs["jobs"] = len(walls)
		return nil
	}

	// Traced run. The traced grid system is built with the program's
	// telemetry on, because a compiled circuit binds its counters at
	// compile time; untraced jobs run on the untraced system with
	// telemetry off, traced jobs on the traced one with it on.
	t := newTracer(fmt.Sprintf("grid_ir_mc-%d-%d", r.seed, time.Now().UnixNano()))
	reg := telemetry.New()
	var traced *pdn.GridSystem
	withTelemetry(reg, func() {
		for i := 0; i < gmSetupReps && err == nil; i++ {
			_, traced, err = gmSetup(t, deck, spec)
		}
	})
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	r.spanLayers(t.summary(), gmSetupReps, false, "pdn.load_deck", "spice.compile", "spice.pristine_solve", "pdn.new_system")
	setupCounters, setupHists := snapshotValues(reg.Snapshot())

	var plainS, tracedS []float64
	var out mcOutcome
	err = repeatFor(r.seconds, 1, func(i int) error {
		opt := gmOptions(r.seed, i)
		_, wall := job(nil, master, i, opt, "job")
		plainS = append(plainS, wall)
		var res *mc.Result
		withTelemetry(reg, func() { res, wall = job(t, traced, i, opt, "traced job") })
		tracedS = append(tracedS, wall)
		if res != nil {
			out.add(res)
		}
		return nil
	})
	if err != nil {
		return err
	}
	serial := gmOptions(r.seed, 0)
	serial.Workers = 1
	_, serialS := job(nil, master, 0, serial, "one-worker job")

	// Counters per job: what the traced jobs added after the set-up.
	counters, hists := snapshotValues(reg.Snapshot())
	subtract(counters, setupCounters)
	subtract(hists, setupHists)
	reps := float64(len(tracedS))
	spans := t.summary()
	r.spanLayers(spans, reps, true, gridSystemLayers...)
	r.mcLayers(out, spans)
	r.telemetryLayers(counters, hists, reps, mcWorkers(0, gmTrials()))
	r.layer["mc.serial_speedup"] = serialS / plainS[0]
	r.layer["trace.overhead_frac"] = median(tracedS)/median(plainS) - 1
	r.layer["error_frac"] = float64(r.failed) / float64(r.attempted)
	r.check(counters["fem.solves"] == 0, "grid_ir_mc ran %v FEA solves, want none", counters["fem.solves"])
	r.inputs["jobs"] = len(plainS) + len(tracedS)
	return t.write(fmt.Sprintf("%s/spans-grid_ir_mc.json", r.outDir), "grid_ir_mc", r.seed)
}
