// Package mc implements Algorithm 1 of the DAC'17 paper: Monte-Carlo
// simulation of sequential EM failures in a redundant system. The same
// engine runs at both hierarchy levels — vias inside a via array, and via
// arrays inside a power grid — through the System interface.
//
// Each trial samples a base TTF for every component at its trial-start
// current, then repeatedly fails the component with the least remaining
// life. Failing a component redistributes current, which accelerates the
// survivors; the engine models this with damage accumulation: component i
// fails when its accumulated damage ∫ rate_i(t)·dt reaches its base TTF,
// where rate_i is the system-reported relative aging rate (1 at trial
// start, (j_new/j_0)² after redistribution, per the TTF ∝ 1/j² scaling of
// the nucleation model).
package mc

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"emvia/internal/trace"
)

// System is a redundant system analyzed by Algorithm 1. Implementations are
// stateful: BeginTrial resets electrical state, Fail mutates it.
type System interface {
	// NumComponents returns the number of failable components.
	NumComponents() int
	// BeginTrial resets the system and samples fresh component TTFs.
	BeginTrial(rng *rand.Rand) error
	// BaseTTF returns component i's sampled TTF in seconds under its
	// trial-start conditions. May be 0 (immediately feasible void) or +Inf
	// (no EM stress on this component).
	BaseTTF(i int) float64
	// AgingRate returns the current relative damage rate of surviving
	// component i: 1 at trial start, rising when the component inherits
	// current from failed neighbours.
	AgingRate(i int) float64
	// Fail marks component i failed and updates the electrical state
	// (resistance change, current redistribution).
	Fail(i int) error
	// Failed reports whether the system-level failure criterion is
	// breached in the current state.
	Failed() (bool, error)
}

// TrialPreparer is the former trial-group preparation hook. The engine no
// longer calls it — it runs one trial per dispatch — and
// pdn.GridSystem.PrepareTrials is a no-op; the interface remains only so
// that wrappers written against it keep compiling.
type TrialPreparer interface {
	// PrepareTrials is never called by the engine.
	PrepareTrials(seeds []int64) error
}

// Engine names an analysis backend selected by the -engine flag. The
// Monte-Carlo engine only ever runs EngineMC and EngineBoth configurations;
// EngineSteady is the screening-only backend handled by the callers.
const (
	EngineMC     = "mc"
	EngineSteady = "steady"
	EngineBoth   = "both"
)

// ParseEngine validates an -engine flag value, mapping "" to EngineMC.
func ParseEngine(s string) (string, error) {
	switch s {
	case "", EngineMC:
		return EngineMC, nil
	case EngineSteady, EngineBoth:
		return s, nil
	}
	return "", fmt.Errorf("mc: unknown engine %q (want mc, steady or both)", s)
}

// CandidateMasker is optionally implemented by Systems that understand a
// candidate mask natively: SetCandidates is called once before any trial
// when Options.Candidates is set. A masking system must switch its TTF
// sampling to the per-component substream contract — one base draw from the
// trial generator, then an independent generator seeded by mixing the base
// with the component index for each candidate — so that shrinking the mask
// never perturbs the random stream of the components that remain. Systems
// without the interface still run correctly under a mask (the engine skips
// non-candidates itself) but must not be compared bit-for-bit across masks.
type CandidateMasker interface {
	// SetCandidates installs the mask (len == NumComponents, true =
	// failure candidate). The slice is shared and must not be mutated.
	SetCandidates(mask []bool) error
}

// Options configures a Monte-Carlo run.
type Options struct {
	// Trials is the number of Monte-Carlo trials (paper: N_trials = 500).
	Trials int
	// Seed makes the run reproducible; trial t derives its own generator
	// from Seed and t, so results do not depend on scheduling.
	Seed int64
	// FirstTrial offsets the run into a larger trial sequence: the run
	// executes trials [FirstTrial, FirstTrial+Trials) of the sequence seeded
	// by Seed, with local result index i holding global trial FirstTrial+i.
	// Because trial t always derives its generator from trialSeed(Seed, t)
	// regardless of which run executes it, a set of runs whose ranges tile
	// [0, N) reproduces, trial for trial, exactly the bits a single
	// [0, N) run would — the contract distributed shard execution merges on.
	// 0 (the default) is the whole-range run.
	FirstTrial int
	// RunToCompletion keeps failing components after the system criterion
	// fires, recording every failure event. Used by via-array
	// characterization, which extracts all n_F criteria from one run.
	RunToCompletion bool
	// Workers bounds the number of worker goroutines of RunParallel; zero
	// selects runtime.GOMAXPROCS(0), negative values are rejected by
	// Validate. Results are bit-identical for any value thanks to per-trial
	// seeding. Ignored by Run.
	Workers int
	// TraceLabel names this run in structured traces (see internal/trace);
	// empty selects "mc".
	TraceLabel string
	// Solver records the circuit factor the run's systems use ("sparse" or
	// "supernodal"; empty = unspecified). The engine itself never interprets
	// it — the factor is a property of the System factory — but it is
	// validated here and echoed in the Result, which the run ledger records.
	Solver string
	// Engine records the analysis backend that configured the run ("mc",
	// "both"; empty = unspecified). Like Solver it is provenance, not
	// behavior: the pruning itself rides on Candidates.
	Engine string
	// Candidates restricts each trial to a subset of failure candidates
	// (len == NumComponents, true = candidate): non-candidates are never
	// sampled, scanned or failed, the screening contract of the steady
	// engine. Nil — the default — is the legacy unscreened path, preserved
	// byte for byte. The slice is shared across workers read-only.
	Candidates []bool
}

// Validate rejects impossible option values: Trials must be ≥ 1 and Workers
// ≥ 0 (0 = one worker per CPU). Both fields are ints, so NaN or fractional
// counts are unrepresentable here by construction — flag/config parsing
// rejects them before an Options can be built. Run and RunParallel call
// Validate themselves.
func (o Options) Validate() error {
	if o.Trials < 1 {
		return fmt.Errorf("mc: Trials must be ≥ 1, got %d", o.Trials)
	}
	if o.Workers < 0 {
		return fmt.Errorf("mc: Workers must be ≥ 0 (0 = one per CPU), got %d", o.Workers)
	}
	if o.FirstTrial < 0 {
		return fmt.Errorf("mc: FirstTrial must be ≥ 0, got %d", o.FirstTrial)
	}
	switch o.Solver {
	case "", "sparse", "supernodal":
	default:
		return fmt.Errorf("mc: unknown solver backend %q (want sparse or supernodal)", o.Solver)
	}
	switch o.Engine {
	case "", EngineMC, EngineBoth:
	default:
		return fmt.Errorf("mc: engine %q cannot drive a Monte-Carlo run (want mc or both)", o.Engine)
	}
	if o.Candidates != nil {
		any := false
		for _, c := range o.Candidates {
			if c {
				any = true
				break
			}
		}
		if !any {
			return fmt.Errorf("mc: Candidates masks out every component; nothing to simulate")
		}
	}
	return nil
}

// candidateIdx resolves the candidate mask against a system: it validates
// the length, installs the mask on CandidateMasker systems, and returns the
// ascending candidate index list the trial loop scans (nil for the legacy
// unmasked path).
func candidateIdx(sys System, opt Options) ([]int, error) {
	if opt.Candidates == nil {
		return nil, nil
	}
	n := sys.NumComponents()
	if len(opt.Candidates) != n {
		return nil, fmt.Errorf("mc: Candidates has %d entries for %d components", len(opt.Candidates), n)
	}
	if cm, ok := sys.(CandidateMasker); ok {
		if err := cm.SetCandidates(opt.Candidates); err != nil {
			return nil, fmt.Errorf("mc: installing candidate mask: %w", err)
		}
	}
	idx := make([]int, 0, n)
	for i, c := range opt.Candidates {
		if c {
			idx = append(idx, i)
		}
	}
	return idx, nil
}

// traceLabel returns the run name for structured traces.
func (o Options) traceLabel() string {
	if o.TraceLabel != "" {
		return o.TraceLabel
	}
	return "mc"
}

// ComponentLabeler is optionally implemented by Systems that can name their
// components for trace output (e.g. "Plus-shaped(3,4)" for a via, or a grid
// array's position). Labels appear in trace fail events; they never feed
// back into the simulation.
type ComponentLabeler interface {
	// ComponentLabel returns a human-readable identity for component i.
	ComponentLabel(i int) string
}

// Result collects the per-trial outcomes.
type Result struct {
	// TTF is the per-trial system failure time in seconds (+Inf when the
	// criterion never fired).
	TTF []float64
	// Events[t] lists the component-failure times of trial t in
	// chronological order (all events when RunToCompletion, else the
	// events up to and including system failure).
	Events [][]float64
	// EventComps[t] lists the component index of each failure of trial t,
	// parallel to Events[t]. Used for criticality ranking: which
	// components actually precipitate system failure.
	EventComps [][]int
	// Solver echoes Options.Solver: the circuit backend the run's systems
	// used, as reported by their factory.
	Solver string
}

// FiniteTTF returns the finite system TTFs (dropping never-failed trials).
func (r *Result) FiniteTTF() []float64 {
	out := make([]float64, 0, len(r.TTF))
	for _, t := range r.TTF {
		if !math.IsInf(t, 1) {
			out = append(out, t)
		}
	}
	return out
}

// KthFailureTimes returns the time of the k-th component failure (1-based)
// in each trial that reached k failures. Requires RunToCompletion for
// complete data.
func (r *Result) KthFailureTimes(k int) []float64 {
	var out []float64
	for _, ev := range r.Events {
		if k >= 1 && k <= len(ev) {
			out = append(out, ev[k-1])
		}
	}
	return out
}

// FirstFailureCounts tallies, per component, how many trials it was the
// first to fail — the weakest-link criticality ranking a designer uses to
// decide which components to upsize.
func (r *Result) FirstFailureCounts(numComponents int) []int {
	counts := make([]int, numComponents)
	for _, comps := range r.EventComps {
		if len(comps) > 0 && comps[0] >= 0 && comps[0] < numComponents {
			counts[comps[0]]++
		}
	}
	return counts
}

// FailureInvolvement tallies, per component, how many trials it failed at
// any point before (or at) system failure.
func (r *Result) FailureInvolvement(numComponents int) []int {
	counts := make([]int, numComponents)
	for _, comps := range r.EventComps {
		for _, c := range comps {
			if c >= 0 && c < numComponents {
				counts[c]++
			}
		}
	}
	return counts
}

// MaskMisses returns every component that failed in some trial despite not
// being in mask — the screening soundness check of the steady engine: a
// non-empty return from an unscreened run means the mortal classification
// missed a component the Monte Carlo observed failing.
func (r *Result) MaskMisses(mask []bool) []int {
	var misses []int
	seen := make(map[int]bool)
	for _, comps := range r.EventComps {
		for _, c := range comps {
			if c >= 0 && c < len(mask) && !mask[c] && !seen[c] {
				seen[c] = true
				misses = append(misses, c)
			}
		}
	}
	return misses
}

// trialSeed decorrelates per-trial generators.
func trialSeed(seed int64, trial int) int64 {
	x := uint64(seed) + uint64(trial)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	return int64(x)
}

// Run executes the Monte-Carlo loop serially on one system instance.
func Run(sys System, opt Options) (*Result, error) {
	return RunCtx(context.Background(), sys, opt)
}

// RunCtx is Run with cancellation: the context is checked between trials, so
// a deadline or cancel stops the loop within one trial's wall time. On
// cancellation the error wraps ctx.Err() (errors.Is-matchable against
// context.Canceled / context.DeadlineExceeded) and the partial results are
// discarded — callers needing progress accounting observe it through the
// trace ring or telemetry, which tick per completed trial either way.
func RunCtx(ctx context.Context, sys System, opt Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	res := &Result{
		TTF:        make([]float64, opt.Trials),
		Events:     make([][]float64, opt.Trials),
		EventComps: make([][]int, opt.Trials),
		Solver:     opt.Solver,
	}
	// One generator and one scratch buffer set serve every trial: reseeding
	// with the per-trial seed reproduces exactly the stream a fresh
	// generator would, so results are unchanged while the loop stops
	// allocating.
	rng := rand.New(rand.NewSource(trialSeed(opt.Seed, 0)))
	var scratch trialScratch
	met := newRunMetrics()
	run := trace.Default().BeginRun(opt.traceLabel(), opt.Trials)
	defer run.End()
	labeler, _ := sys.(ComponentLabeler)
	idxs, err := candidateIdx(sys, opt)
	if err != nil {
		return nil, err
	}
	if idxs != nil {
		met.observeMask(sys.NumComponents(), len(idxs))
	}
	t0 := met.runSeconds.Start()
	for t := 0; t < opt.Trials; t++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("mc: canceled after %d of %d trials: %w", t, opt.Trials, err)
		}
		rng.Seed(trialSeed(opt.Seed, opt.FirstTrial+t))
		ttf, events, comps, err := runTrial(sys, rng, opt.RunToCompletion, idxs, &scratch, &met, run.Trial(t), labeler)
		if err != nil {
			return nil, fmt.Errorf("mc: trial %d: %w", t, err)
		}
		res.TTF[t] = ttf
		res.Events[t] = events
		res.EventComps[t] = comps
		met.reg.ProgressTick("mc", int64(t+1), int64(opt.Trials))
	}
	met.runSeconds.ObserveSince(t0)
	return res, nil
}

// RunParallel executes trials across workers, each with its own System from
// the factory. Results are identical to Run thanks to per-trial seeding.
func RunParallel(newSys func() (System, error), opt Options) (*Result, error) {
	return RunParallelCtx(context.Background(), newSys, opt)
}

// RunParallelCtx is RunParallel with cancellation: every worker checks the
// context between trials, so a deadline or cancel drains the pool within one
// trial's wall time per worker. The returned error wraps ctx.Err() unless a
// trial failed first (the first failure of any kind wins).
func RunParallelCtx(ctx context.Context, newSys func() (System, error), opt Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, opt.Trials)
	res := &Result{
		TTF:        make([]float64, opt.Trials),
		Events:     make([][]float64, opt.Trials),
		EventComps: make([][]int, opt.Trials),
		Solver:     opt.Solver,
	}
	met := newRunMetrics()
	run := trace.Default().BeginRun(opt.traceLabel(), opt.Trials)
	defer run.End()
	if opt.Candidates != nil {
		nc := 0
		for _, c := range opt.Candidates {
			if c {
				nc++
			}
		}
		met.observeMask(len(opt.Candidates), nc)
	}
	t0 := met.runSeconds.Start()
	// Trial dispatch is a lock-free atomic fetch-add — workers never contend
	// on a mutex in the hot loop. Errors are confined to a sync.Once (the
	// first one wins) plus a stop flag that drains the remaining workers.
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		done     atomic.Int64
		stop     atomic.Bool
		once     sync.Once
		firstErr error
	)
	fail := func(err error) {
		once.Do(func() { firstErr = err })
		stop.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sys, err := newSys()
			if err != nil {
				fail(err)
				return
			}
			rng := rand.New(rand.NewSource(trialSeed(opt.Seed, 0)))
			var scratch trialScratch
			met := newRunMetrics() // per-worker handles; runSeconds tracked by the dispatcher
			labeler, _ := sys.(ComponentLabeler)
			idxs, err := candidateIdx(sys, opt)
			if err != nil {
				fail(err)
				return
			}
			// Workers claim single trials; per-trial seeding makes the
			// result independent of which worker runs which trial.
			for !stop.Load() {
				t := int(next.Add(1)) - 1
				if t >= opt.Trials {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(fmt.Errorf("mc: canceled at trial %d of %d: %w", t, opt.Trials, err))
					return
				}
				rng.Seed(trialSeed(opt.Seed, opt.FirstTrial+t))
				ttf, events, comps, err := runTrial(sys, rng, opt.RunToCompletion, idxs, &scratch, &met, run.Trial(t), labeler)
				if err != nil {
					fail(fmt.Errorf("mc: trial %d: %w", t, err))
					return
				}
				res.TTF[t] = ttf
				res.Events[t] = events
				res.EventComps[t] = comps
				if met.reg != nil {
					met.reg.ProgressTick("mc", done.Add(1), int64(opt.Trials))
				}
			}
		}()
	}
	wg.Wait()
	met.runSeconds.ObserveSince(t0)
	// wg.Wait orders every once.Do before this read; no lock needed.
	if firstErr != nil {
		return nil, firstErr
	}
	return res, nil
}

// trialScratch holds the per-trial damage and liveness buffers a worker
// reuses across the trials it runs, keeping the scheduling loop
// allocation-free.
type trialScratch struct {
	damage []float64
	alive  []bool
}

func (s *trialScratch) reserve(n int) {
	if cap(s.damage) < n {
		s.damage = make([]float64, n)
		s.alive = make([]bool, n)
	}
	s.damage = s.damage[:n]
	s.alive = s.alive[:n]
}

// runTrial performs one sequential-failure trial. idxs is the ascending
// candidate index list of a screened run (nil = every component); only
// listed components are sampled, scanned and failed, which is what turns a
// mortal-subset mask into wall-clock savings on large systems. tt is the
// trial's trace recorder (the zero value when tracing is off) and lab the
// optional component namer; both are strictly observational.
func runTrial(sys System, rng *rand.Rand, toCompletion bool, idxs []int, scratch *trialScratch, met *runMetrics, tt trace.Trial, lab ComponentLabeler) (systemTTF float64, events []float64, comps []int, err error) {
	trial0 := met.trialSeconds.Start()
	if err := sys.BeginTrial(rng); err != nil {
		return 0, nil, nil, fmt.Errorf("BeginTrial: %w", err)
	}
	n := sys.NumComponents()
	nc := n
	if idxs != nil {
		nc = len(idxs)
	}
	tt.Begin(n)
	if tt.Enabled() {
		if idxs == nil {
			for i := 0; i < n; i++ {
				tt.Sample(i, sys.BaseTTF(i))
			}
		} else {
			for _, i := range idxs {
				tt.Sample(i, sys.BaseTTF(i))
			}
		}
	}
	scratch.reserve(n)
	damage, alive := scratch.damage, scratch.alive
	for i := range damage {
		damage[i] = 0
	}
	if idxs == nil {
		for i := range alive {
			alive[i] = true
		}
	} else {
		for i := range alive {
			alive[i] = false
		}
		for _, i := range idxs {
			alive[i] = true
		}
	}
	now := 0.0
	systemTTF = math.Inf(1)
	systemFailed := false

	for remaining := nc; remaining > 0; remaining-- {
		// Find the component with the least remaining life. The unmasked and
		// masked scans are spelled out separately to keep the legacy hot loop
		// exactly as it was and the masked one free of a full-range sweep.
		minDt := math.Inf(1)
		minIdx := -1
		if idxs == nil {
			for i := 0; i < n; i++ {
				if !alive[i] {
					continue
				}
				rate := sys.AgingRate(i)
				if rate < 0 || math.IsNaN(rate) {
					return 0, nil, nil, fmt.Errorf("component %d: invalid aging rate %g", i, rate)
				}
				left := sys.BaseTTF(i) - damage[i]
				if left < 0 {
					left = 0
				}
				var dt float64
				switch {
				case rate == 0:
					dt = math.Inf(1)
				default:
					dt = left / rate
				}
				if dt < minDt {
					minDt = dt
					minIdx = i
				}
			}
		} else {
			for _, i := range idxs {
				if !alive[i] {
					continue
				}
				rate := sys.AgingRate(i)
				if rate < 0 || math.IsNaN(rate) {
					return 0, nil, nil, fmt.Errorf("component %d: invalid aging rate %g", i, rate)
				}
				left := sys.BaseTTF(i) - damage[i]
				if left < 0 {
					left = 0
				}
				var dt float64
				switch {
				case rate == 0:
					dt = math.Inf(1)
				default:
					dt = left / rate
				}
				if dt < minDt {
					minDt = dt
					minIdx = i
				}
			}
		}
		if minIdx < 0 || math.IsInf(minDt, 1) {
			// No candidate can ever fail; the system survives forever.
			break
		}
		// Advance time and accumulate damage on survivors.
		now += minDt
		if idxs == nil {
			for i := 0; i < n; i++ {
				if alive[i] {
					damage[i] += minDt * sys.AgingRate(i)
				}
			}
		} else {
			for _, i := range idxs {
				if alive[i] {
					damage[i] += minDt * sys.AgingRate(i)
				}
			}
		}
		alive[minIdx] = false
		// The Fail call is the redistribution step: it mutates the electrical
		// state and re-solves, which dominates a trial's wall time.
		fail0 := met.failSeconds.Start()
		if err := sys.Fail(minIdx); err != nil {
			return 0, nil, nil, fmt.Errorf("Fail(%d): %w", minIdx, err)
		}
		met.failSeconds.ObserveSince(fail0)
		events = append(events, now)
		comps = append(comps, minIdx)
		if tt.Enabled() {
			label := ""
			if lab != nil {
				label = lab.ComponentLabel(minIdx)
			}
			tt.Fail(now, minIdx, label)
			// Summarize the redistribution the Fail call just performed:
			// max/mean aging rate over the survivors. This O(n) scan runs
			// only when tracing is on.
			maxRate, sum := 0.0, 0.0
			maxComp, survivors := -1, 0
			for i := 0; i < n; i++ {
				if !alive[i] {
					continue
				}
				r := sys.AgingRate(i)
				survivors++
				sum += r
				if r > maxRate {
					maxRate, maxComp = r, i
				}
			}
			if survivors > 0 {
				tt.Redistribute(now, maxRate, maxComp, sum/float64(survivors), survivors)
			}
		}

		if !systemFailed {
			failed, err := sys.Failed()
			if err != nil {
				return 0, nil, nil, fmt.Errorf("Failed check: %w", err)
			}
			if failed {
				systemFailed = true
				systemTTF = now
				tt.SpecViolation(now, len(events))
				if !toCompletion {
					break
				}
			}
		}
	}
	met.trials.Inc()
	met.failuresPerTrial.Observe(float64(len(events)))
	met.trialSeconds.ObserveSince(trial0)
	tt.End(systemTTF, len(events))
	return systemTTF, events, comps, nil
}
