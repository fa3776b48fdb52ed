package main

import (
	"runtime"

	"emvia/internal/mc"
	"emvia/internal/pdn"
	"emvia/internal/telemetry"
)

// telemetryCounters are the program's own counters reported per
// repetition: FEA solves, the circuit-solver backend that ran, and the
// factor maintenance behind it. They are looked up by name, so a counter a
// later version stops keeping reads 0 instead of breaking the build.
var telemetryCounters = []string{
	"fem.solves",
	"spice.solves.direct",
	"spice.solves.cg",
	"spice.solves.sparse",
	"solver.sparse.downdates",
	"solver.sparse.factorizations",
	"spice.resets",
}

// mcGroupTrials is the Monte-Carlo engine's default trial-group size
// (mc.Options.BatchTrials 0): mc.RunParallel hands trials to its workers
// in groups of this many and starts no more workers than there are groups.
const mcGroupTrials = 16

// mcWorkers is the number of workers mc.RunParallel runs for a job of
// trials trials under a worker budget (0 = GOMAXPROCS, the default).
func mcWorkers(budget, trials int) int {
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	return min(budget, (trials+mcGroupTrials-1)/mcGroupTrials)
}

// telemetryLayers sets the per-layer metrics read from the program's
// telemetry: counters and the steady-screen time per repetition, and the
// Monte-Carlo worker busy fraction, which is the summed trial time over
// workers × run wall time; workers is the number the engine ran (mcWorkers).
func (r *benchRun) telemetryLayers(counters, histSums map[string]float64, reps float64, workers int) {
	for _, n := range telemetryCounters {
		r.layer[n] = counters[n] / reps
	}
	r.layer["steady.screen_s"] = histSums["steady.screen_seconds"] / reps
	if run := histSums["mc.run_seconds"]; run > 0 {
		r.layer["mc.worker_busy_frac"] = histSums["mc.trial_seconds"] / (float64(workers) * run)
	}
}

// spanLayers sets <name>_s to the inclusive span time per repetition, and
// <name>_calls to the call count per repetition when calls is set.
func (r *benchRun) spanLayers(spans map[string]*layerStat, reps float64, calls bool, names ...string) {
	for _, n := range names {
		st := spans[n]
		if st == nil {
			st = &layerStat{}
		}
		r.layer[n+"_s"] = st.TotalS / reps
		if calls {
			r.layer[n+"_calls"] = float64(st.Count) / reps
		}
	}
}

// gridSystemLayers are the spans the Monte-Carlo wrapper records around the
// grid system's calls.
var gridSystemLayers = []string{"pdn.begin_trial", "pdn.prepare_trials", "pdn.fail", "pdn.failed"}

// mcOutcome accumulates what the traced Monte-Carlo runs produced.
type mcOutcome struct {
	trials, events, repeats int
}

func (o *mcOutcome) add(res *mc.Result) {
	ev, rep := failureStats(res)
	o.trials += len(res.TTF)
	o.events += ev
	o.repeats += rep
}

// mcLayers sets the failure-count metrics and checks that the wrapper saw
// every failure the engine recorded.
func (r *benchRun) mcLayers(o mcOutcome, spans map[string]*layerStat) {
	if o.trials > 0 {
		r.layer["mc.failures_per_trial"] = float64(o.events) / float64(o.trials)
	}
	if o.events > 0 {
		r.layer["pdn.fail_repeat_frac"] = float64(o.repeats) / float64(o.events)
	}
	calls := 0
	if st := spans["pdn.fail"]; st != nil {
		calls = st.Count
	}
	r.check(calls == o.events, "wrapper recorded %d Fail calls, the results hold %d failures", calls, o.events)
}

// runGridMC runs the grid-level Monte Carlo over clones of master, the way
// pdn.AnalyzeTTF does. With a tracer, every worker's system is wrapped and
// the run is one "mc.run" span under parent.
func runGridMC(t *tracer, parent int32, master *pdn.GridSystem, opt mc.Options) (*mc.Result, error) {
	if t == nil {
		return mc.RunParallel(func() (mc.System, error) { return master.Clone(), nil }, opt)
	}
	factory, collect := tracedFactory(t, master)
	s := t.start("mc.run", parent)
	res, err := mc.RunParallel(factory, opt)
	s.end()
	collect(s.id)
	return res, err
}

// withTelemetry runs fn with the program's telemetry recording into reg;
// telemetry is off again afterwards, so untraced work in between records
// nothing.
func withTelemetry(reg *telemetry.Registry, fn func()) {
	telemetry.SetDefault(reg)
	defer telemetry.SetDefault(nil)
	fn()
}

// subtract removes base from m in place.
func subtract(m, base map[string]float64) {
	for k, v := range base {
		m[k] -= v
	}
}
