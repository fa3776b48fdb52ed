package main

import (
	"fmt"
	"math"
	"time"

	"emvia/internal/core"
	"emvia/internal/cudd"
	"emvia/internal/mc"
	"emvia/internal/pdn"
	"emvia/internal/phys"
	"emvia/internal/spice"
	"emvia/internal/stat"
	"emvia/internal/telemetry"
)

// Table 2 at the scale of `paperfigs -fig t2 -fast`: the PG1/PG2/PG5
// analogues at half size, tuned as the paper prepares its benchmarks, with
// 500 trials at both Monte-Carlo levels.
const (
	t2NominalIR   = 0.065
	t2RefJ        = 1e10 // characterization current density, A/m²
	t2RefViaAmps  = t2RefJ * 1e-12
	t2IRCriterion = 0.10
	t2Trials      = 500
	t2SetupReps   = 60
)

// t2Cell is one entry of the table.
type t2Cell struct {
	grid int
	n    int
	sys  pdn.Criterion
	arr  core.ArrayCriterion
	seed int64
}

func (c t2Cell) String() string {
	return fmt.Sprintf("grid%d %dx%d %s/%s", c.grid, c.n, c.n, c.sys, c.arr)
}

// t2Cells lists the cells in the order paperfigs computes them; seed is the
// table's base seed.
func t2Cells(seed int64) []t2Cell {
	var cells []t2Cell
	for _, n := range []int{4, 8} {
		for g := 0; g < 3; g++ {
			for _, sys := range []pdn.Criterion{pdn.WeakestLink, pdn.IRDrop} {
				for _, arr := range []core.ArrayCriterion{core.ArrayWeakestLink(), core.ArrayOpenCircuit()} {
					cells = append(cells, t2Cell{grid: g, n: n, sys: sys, arr: arr, seed: seed + int64(10*n)})
				}
			}
		}
	}
	return cells
}

// t2Grids synthesizes and tunes the three grids.
func t2Grids() ([]*pdn.Grid, error) {
	var grids []*pdn.Grid
	for _, spec := range []pdn.GridSpec{pdn.PG1Spec(), pdn.PG2Spec(), pdn.PG5Spec()} {
		spec.NX /= 2
		spec.NY /= 2
		if spec.PadPeriod > spec.NX {
			spec.PadPeriod = spec.NX
		}
		g, err := pdn.Generate(spec)
		if err != nil {
			return nil, err
		}
		if err := g.Tune(t2NominalIR, t2RefViaAmps); err != nil {
			return nil, err
		}
		grids = append(grids, g)
	}
	return grids, nil
}

// t2Analyzer is a fresh analyzer with the coarse FEA meshes of -fast and no
// persistent stress cache, so every table pays its FEA.
func t2Analyzer() *core.Analyzer {
	a := core.NewAnalyzer()
	a.Base.Margin = 1.0 * phys.Micron
	a.Base.SubstrateThickness = 0.8 * phys.Micron
	a.Base.StepOutside = 0.5 * phys.Micron
	a.Base.StepZBulk = 1.0 * phys.Micron
	return a
}

// t2Table is one computed table.
type t2Table struct {
	years   []float64 // worst-case (0.3 %ile) TTF per cell
	digests []string
	cellS   []float64
	wallS   float64
	failed  int
	// Traced tables only: the Monte-Carlo inputs, for the one-worker
	// reference run.
	masters []*pdn.GridSystem
	opts    []mc.Options
}

// worstYears is the paper's headline number of one cell.
func worstYears(res *mc.Result) (float64, error) {
	finite := res.FiniteTTF()
	if len(finite) == 0 {
		return 0, fmt.Errorf("no trial reached the system failure criterion")
	}
	ecdf, err := stat.NewECDF(finite)
	if err != nil {
		return 0, err
	}
	return (&core.GridReport{TTF: ecdf}).WorstCaseYears(), nil
}

// t2Plain computes the table the way paperfigs does: one
// core.Analyzer.AnalyzeGrid call per cell.
func t2Plain(grids []*pdn.Grid, cells []t2Cell) *t2Table {
	a := t2Analyzer()
	tab := &t2Table{}
	start := time.Now()
	for _, c := range cells {
		t0 := time.Now()
		rep, err := a.AnalyzeGrid(core.GridAnalysis{
			Grid:            grids[c.grid],
			ArrayN:          c.n,
			ArrayCriterion:  c.arr,
			SystemCriterion: c.sys,
			IRDropFrac:      t2IRCriterion,
			CharTrials:      t2Trials,
			GridTrials:      t2Trials,
			Seed:            c.seed,
		})
		tab.cellS = append(tab.cellS, time.Since(t0).Seconds())
		if err != nil {
			tab.failed++
			tab.years = append(tab.years, math.NaN())
			tab.digests = append(tab.digests, "error: "+err.Error())
			continue
		}
		tab.years = append(tab.years, rep.WorstCaseYears())
		tab.digests = append(tab.digests, digest(rep.MC))
	}
	tab.wallS = time.Since(start).Seconds()
	return tab
}

// t2Traced computes the same table through the steps AnalyzeGrid takes —
// FEA stress, via-array characterization, grid system, grid Monte Carlo —
// with a span around each. The results must match t2Plain bit for bit.
func t2Traced(t *tracer, grids []*pdn.Grid, cells []t2Cell, out *mcOutcome) (*t2Table, error) {
	a := t2Analyzer()
	tab := &t2Table{}
	start := time.Now()
	root := t.start("table2.table", -1)
	defer root.end()
	for _, g := range grids {
		s := t.start("spice.compile", root.id)
		c, err := spice.Compile(g.Netlist)
		s.end()
		if err != nil {
			return nil, err
		}
		s = t.start("spice.pristine_solve", root.id)
		_, err = c.SolveDC(nil)
		s.end()
		if err != nil {
			return nil, err
		}
	}
	for _, c := range cells {
		t0 := time.Now()
		cs := t.start("table2.cell", root.id)
		g := grids[c.grid]
		width := g.Spec.WireWidth
		if width == 0 {
			width = a.Base.WireWidth
		}
		for _, pat := range cudd.Patterns() {
			s := t.start("core.stress_for", cs.id)
			_, err := a.StressFor(pat, a.Base.LayerPair, c.n, width)
			s.end()
			if err != nil {
				return nil, fmt.Errorf("%v: %w", c, err)
			}
		}
		s := t.start("core.characterize", cs.id)
		models, err := a.ViaArrayModels(c.n, width, t2RefJ, c.arr, t2Trials, c.seed)
		s.end()
		if err != nil {
			return nil, fmt.Errorf("%v: %w", c, err)
		}
		s = t.start("pdn.new_system", cs.id)
		master, err := pdn.NewSystem(pdn.TTFConfig{Grid: g, Models: models, Criterion: c.sys, IRDropFrac: t2IRCriterion})
		s.end()
		if err != nil {
			return nil, fmt.Errorf("%v: %w", c, err)
		}
		opt := mc.Options{Trials: t2Trials, Seed: c.seed + 1000, TraceLabel: "grid:" + c.sys.String()}
		res, err := runGridMC(t, cs.id, master, opt)
		cs.end()
		if err != nil {
			return nil, fmt.Errorf("%v: %w", c, err)
		}
		years, err := worstYears(res)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", c, err)
		}
		out.add(res)
		tab.cellS = append(tab.cellS, time.Since(t0).Seconds())
		tab.years = append(tab.years, years)
		tab.digests = append(tab.digests, digest(res))
		tab.masters = append(tab.masters, master)
		tab.opts = append(tab.opts, opt)
	}
	tab.wallS = time.Since(start).Seconds()
	return tab, nil
}

func runTable2(r *benchRun) error {
	cells := t2Cells(r.seed)

	// Set-up: grid synthesis and tuning, repeated for a steady median.
	var setupS []float64
	var grids []*pdn.Grid
	for i := 0; i < t2SetupReps; i++ {
		t0 := time.Now()
		g, err := t2Grids()
		if err != nil {
			return fmt.Errorf("grid set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		grids = g
	}

	// Input properties: the size and solver backend of every grid.
	smallest := math.MaxInt
	var props []map[string]any
	for _, g := range grids {
		c, err := spice.Compile(g.Netlist)
		if err != nil {
			return err
		}
		if _, err := c.SolveDC(nil); err != nil {
			return err
		}
		props = append(props, map[string]any{"grid": g.Spec.Name, "nx": g.Spec.NX, "vias": len(g.Vias), "free_nodes": c.NumFree(), "backend": c.SolverBackend()})
		smallest = min(smallest, c.NumFree())
	}
	r.inputs["grids"] = props
	r.inputs["cells"] = len(cells)
	r.inputs["mc_workers"] = mcWorkers(0, t2Trials)
	r.check(smallest <= 256, "table2 has no grid with at most 256 free nodes (smallest has %d)", smallest)

	var ref *t2Table
	compare := func(tab *t2Table, what string) {
		r.attempted += len(cells)
		r.failed += tab.failed
		for i, y := range tab.years {
			r.check(y > 0 && !math.IsInf(y, 0) && !math.IsNaN(y), "%s %v: worst-case TTF %g years, want finite and positive", what, cells[i], y)
		}
		if ref == nil {
			ref = tab
			return
		}
		for i := range cells {
			r.check(math.Float64bits(tab.years[i]) == math.Float64bits(ref.years[i]) && tab.digests[i] == ref.digests[i],
				"%s %v differs from the first table: %v (%s) vs %v (%s)", what, cells[i], tab.years[i], tab.digests[i], ref.years[i], ref.digests[i])
		}
	}

	if !r.trace {
		var walls, cellS []float64
		start := time.Now()
		err := repeatFor(r.seconds, 2, func(int) error {
			tab := t2Plain(grids, cells)
			compare(tab, "table")
			walls = append(walls, tab.wallS)
			cellS = append(cellS, tab.cellS...)
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
		r.e2e["wall_s"] = median(walls)
		r.e2e["setup_s"] = median(setupS)
		r.e2e["jobs_per_s"] = float64(len(cellS)) / phase
		r.e2e["job_p50_s"] = quantile(cellS, 0.5)
		r.e2e["job_p75_s"] = quantile(cellS, 0.75)
		r.e2e["peak_rss_mb"] = rss
		r.e2e["success_frac"] = float64(r.attempted-r.failed) / float64(r.attempted)
		r.inputs["tables"] = len(walls)
		return nil
	}

	// Traced run: untraced and traced tables alternate; the traced ones run
	// with the program's telemetry on.
	t := newTracer(fmt.Sprintf("table2-%d-%d", r.seed, time.Now().UnixNano()))
	var plainS, tracedS []float64
	reg := telemetry.New()
	var out mcOutcome
	var last *t2Table
	err := repeatFor(r.seconds, 1, func(int) error {
		tab := t2Plain(grids, cells)
		compare(tab, "table")
		plainS = append(plainS, tab.wallS)
		var err error
		withTelemetry(reg, func() { last, err = t2Traced(t, grids, cells, &out) })
		if err != nil {
			return err
		}
		compare(last, "traced table")
		tracedS = append(tracedS, last.wallS)
		return nil
	})
	if err != nil {
		return err
	}
	reps := float64(len(tracedS))

	// One-worker reference: the last traced table's grid Monte Carlo again,
	// untraced, on the default workers and on one; both must reproduce
	// every cell bit for bit.
	var parallelS, serialS float64
	for i, m := range last.masters {
		for _, workers := range []int{0, 1} {
			opt := last.opts[i]
			opt.Workers = workers
			t0 := time.Now()
			res, err := runGridMC(nil, -1, m, opt)
			if workers == 1 {
				serialS += time.Since(t0).Seconds()
			} else {
				parallelS += time.Since(t0).Seconds()
			}
			if err != nil {
				return err
			}
			r.check(digest(res) == last.digests[i], "untraced run of %v on %d workers (0 = default) differs from the traced run", cells[i], workers)
		}
	}

	counters, hists := snapshotValues(reg.Snapshot())
	spans := t.summary()
	r.spanLayers(spans, reps, false, "core.stress_for", "core.characterize", "spice.compile", "spice.pristine_solve", "pdn.new_system")
	r.spanLayers(spans, reps, true, gridSystemLayers...)
	r.mcLayers(out, spans)
	r.telemetryLayers(counters, hists, reps, mcWorkers(0, t2Trials))
	r.layer["mc.serial_speedup"] = serialS / parallelS
	r.layer["trace.overhead_frac"] = median(tracedS)/median(plainS) - 1
	r.layer["error_frac"] = float64(r.failed) / float64(r.attempted)
	r.check(counters["fem.solves"] > 0, "table2 ran no FEA solve")
	r.inputs["tables"] = len(plainS) + len(tracedS)
	return t.write(fmt.Sprintf("%s/spans-table2.json", r.outDir), "table2", r.seed)
}
