package pdn

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"emvia/internal/cudd"
	"emvia/internal/mc"
	"emvia/internal/spice"
	"emvia/internal/trace"
	"emvia/internal/viaarray"
)

// Criterion is the power-grid (system-level) failure criterion of §5.2.
type Criterion int

// System failure criteria.
const (
	// WeakestLink declares the grid dead at the first via-array failure —
	// the traditional, pessimistic criterion the paper argues against.
	WeakestLink Criterion = iota
	// IRDrop declares the grid dead when the worst IR drop exceeds a
	// fraction of Vdd (paper: 10 %), crediting mesh redundancy.
	IRDrop
)

// String names the criterion as in the paper's tables.
func (c Criterion) String() string {
	switch c {
	case WeakestLink:
		return "Weakest-link"
	case IRDrop:
		return "IR-drop"
	}
	return fmt.Sprintf("pdn.Criterion(%d)", int(c))
}

// TTFConfig describes a grid TTF analysis.
type TTFConfig struct {
	// Grid is the power grid under analysis.
	Grid *Grid
	// Models maps each intersection pattern to its characterized via-array
	// TTF model (paper §5.1 output). All three patterns present in the
	// grid must be covered.
	Models map[cudd.Pattern]viaarray.TTFModel
	// Criterion selects the system failure criterion.
	Criterion Criterion
	// IRDropFrac is the IR-drop threshold as a fraction of Vdd (paper:
	// 0.10); required when Criterion == IRDrop.
	IRDropFrac float64
	// TTFScale optionally multiplies each array's sampled TTF (g.Vias
	// order): the hook for local-temperature derating (Arrhenius + stress
	// relaxation) computed by the thermal analysis. Nil means uniform 1.
	TTFScale []float64
	// PerViaModels optionally overrides Models with one TTF model per via
	// array (g.Vias order) — the hook for multi-layer grids where each
	// array's model depends on its layer pair as well as its pattern.
	PerViaModels []viaarray.TTFModel
}

// Validate checks the configuration against the grid.
func (c TTFConfig) Validate() error {
	if c.Grid == nil {
		return fmt.Errorf("pdn: TTFConfig needs a grid")
	}
	if c.PerViaModels != nil {
		if len(c.PerViaModels) != len(c.Grid.Vias) {
			return fmt.Errorf("pdn: PerViaModels has %d entries, want %d", len(c.PerViaModels), len(c.Grid.Vias))
		}
		for k, m := range c.PerViaModels {
			if m.RefCurrent <= 0 {
				return fmt.Errorf("pdn: PerViaModels[%d] has non-positive reference current", k)
			}
		}
	} else {
		for pat := range c.Grid.PatternCounts() {
			if _, ok := c.Models[pat]; !ok {
				return fmt.Errorf("pdn: no TTF model for %v via arrays", pat)
			}
		}
	}
	if c.Criterion == IRDrop && (c.IRDropFrac <= 0 || c.IRDropFrac >= 1) {
		return fmt.Errorf("pdn: IRDropFrac must be in (0,1), got %g", c.IRDropFrac)
	}
	if c.TTFScale != nil {
		if len(c.TTFScale) != len(c.Grid.Vias) {
			return fmt.Errorf("pdn: TTFScale has %d entries, want %d", len(c.TTFScale), len(c.Grid.Vias))
		}
		for k, s := range c.TTFScale {
			if s <= 0 || math.IsNaN(s) {
				return fmt.Errorf("pdn: TTFScale[%d] = %g invalid", k, s)
			}
		}
	}
	return nil
}

// GridSystem is the mc.System of the second hierarchy level: components are
// via arrays, failure opens them, and the criterion is grid IR integrity.
type GridSystem struct {
	cfg     TTFConfig
	circuit *spice.Circuit

	i0  []float64 // pristine per-array current magnitudes
	op0 *spice.OP // pristine operating point

	alive       []bool
	baseTTF     []float64
	iNow        []float64
	opNow       *spice.OP
	failedCount int

	// Two spare operating points double-buffer the re-solves inside a trial:
	// Fail always solves into the spare opNow does not occupy, so op0 is
	// never overwritten and the inner loop allocates nothing.
	opA, opB *spice.OP

	// cascade runs IR-drop failures as Sherman–Morrison updates against the
	// pristine sparse factor (see cascade). Nil under the weakest-link
	// criterion, which never re-solves.
	cascade *cascade

	// candidates is the steady screen's mortal mask (mc.CandidateMasker);
	// nil runs the legacy sequential sampling stream. With a mask set,
	// BeginTrial draws one base seed per trial and samples each candidate
	// from its own derived substream, so the sampled TTF of a via array
	// depends only on (trial, array) — never on which other arrays are in
	// the mask. sub is the reusable substream generator.
	candidates []bool
	sub        *rand.Rand

	// circuitDirty records that a trial edited the compiled circuit (opened
	// a via), so the next BeginTrial must restore the pristine matrix.
	// Weakest-link trials and factor-once cascades never edit the circuit;
	// only a cascade's refactor-and-solve fallback does.
	circuitDirty bool
}

// NewSystem compiles the grid and solves the pristine operating point. It
// rejects grids whose nominal IR drop already violates the criterion.
func NewSystem(cfg TTFConfig) (*GridSystem, error) {
	return NewSystemCtx(context.Background(), cfg)
}

// NewSystemCtx is NewSystem with a context whose timeline (if any) gets the
// "compile" and "factorize" stage spans. The context is observational only:
// system construction is a bounded amount of work and does not check for
// cancellation.
func NewSystemCtx(ctx context.Context, cfg TTFConfig) (*GridSystem, error) {
	tl := trace.TimelineFrom(ctx)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	endCompile := tl.Stage("compile")
	circuit, err := spice.Compile(cfg.Grid.Netlist)
	endCompile()
	if err != nil {
		return nil, fmt.Errorf("pdn: compiling grid: %w", err)
	}
	endFactorize := tl.Stage("factorize")
	op, err := circuit.SolveDC(nil)
	endFactorize()
	if err != nil {
		return nil, fmt.Errorf("pdn: pristine solve: %w", err)
	}
	if cfg.Criterion == IRDrop {
		if frac := op.WorstIRDropFrac(cfg.Grid.Spec.Vdd); frac >= cfg.IRDropFrac {
			return nil, fmt.Errorf("pdn: nominal IR drop %.1f%% already violates the %.1f%% criterion; calibrate the load first",
				frac*100, cfg.IRDropFrac*100)
		}
	}
	s := &GridSystem{cfg: cfg, circuit: circuit, op0: op}
	// Put the circuit into its canonical post-reset state (slots compiled,
	// pristine snapshots taken) once up front, so trials on a fresh system
	// and on a Clone start from identical circuit state whether or not
	// BeginTrial's dirty gate runs another restore in between.
	circuit.ResetResistors()
	if cfg.Criterion == IRDrop {
		if s.cascade, err = newCascade(circuit, op); err != nil {
			return nil, err
		}
	}
	s.opA = circuit.NewOP()
	s.opB = circuit.NewOP()
	s.i0 = make([]float64, len(cfg.Grid.Vias))
	for k, v := range cfg.Grid.Vias {
		s.i0[k] = math.Abs(op.ResistorCurrent(v.ResistorIndex))
	}
	return s, nil
}

// Clone returns an independent system for another Monte-Carlo worker. The
// cloned circuit shares every immutable compile-time artifact (node tables,
// sparsity pattern, slot map, symbolic factor structure) with the receiver
// and copies the mutable numeric state, so per-worker systems skip the
// compile + order + factor cost entirely while producing bit-identical
// trials. Cloning only reads the receiver: concurrent clones of one master
// are safe.
func (s *GridSystem) Clone() *GridSystem {
	circuit := s.circuit.Clone()
	d := &GridSystem{
		cfg:        s.cfg,
		circuit:    circuit,
		i0:         s.i0, // pristine currents are write-once
		op0:        s.op0.CloneFor(circuit),
		candidates: s.candidates, // write-once after SetCandidates
		// The source may have been cloned mid-run with vias open; make the
		// clone's first BeginTrial restore the pristine state.
		circuitDirty: true,
	}
	if s.cascade != nil {
		d.cascade = s.cascade.clone()
	}
	d.opA = circuit.NewOP()
	d.opB = circuit.NewOP()
	return d
}

// NumComponents returns the via-array count.
func (s *GridSystem) NumComponents() int { return len(s.cfg.Grid.Vias) }

var _ mc.TrialPreparer = (*GridSystem)(nil)
var _ mc.CandidateMasker = (*GridSystem)(nil)

// PrepareTrials implements mc.TrialPreparer as a no-op: the factor-once
// cascade leaves nothing to prepare ahead of a trial group, and the
// Monte-Carlo engine no longer calls it. It remains for callers written
// against the interface.
func (s *GridSystem) PrepareTrials(seeds []int64) error { return nil }

// subSeed derives the sampling substream seed of array k in a masked trial
// from the trial's base draw (splitmix-style mixing, as mc derives trial
// seeds from the run seed).
func subSeed(base int64, k int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(k+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// splitmixSource is a rand.Source64 with O(1) reseeding (splitmix64). The
// masked sampling path reseeds once per candidate per trial; the stock
// math/rand source pays a 607-word state rebuild per Seed, which would cost
// more than the sampling it feeds. Reseeding this source is one store.
type splitmixSource struct{ s uint64 }

func (p *splitmixSource) Seed(seed int64) { p.s = uint64(seed) }

func (p *splitmixSource) Uint64() uint64 {
	p.s += 0x9e3779b97f4a7c15
	z := p.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (p *splitmixSource) Int63() int64 { return int64(p.Uint64() >> 1) }

// SetCandidates implements mc.CandidateMasker: it restricts the trials to
// the masked via arrays and switches TTF sampling to per-array substreams,
// so shrinking the mask never perturbs the sampled lifetimes of the arrays
// that remain. A nil mask restores the legacy sequential stream.
func (s *GridSystem) SetCandidates(mask []bool) error {
	if mask == nil {
		s.candidates = nil
		return nil
	}
	if len(mask) != s.NumComponents() {
		return fmt.Errorf("pdn: candidate mask has %d entries, want %d", len(mask), s.NumComponents())
	}
	any := false
	for _, m := range mask {
		if m {
			any = true
			break
		}
	}
	if !any {
		return fmt.Errorf("pdn: candidate mask excludes every via array")
	}
	s.candidates = append([]bool(nil), mask...)
	return nil
}

// ensureSub returns the reusable substream generator.
func (s *GridSystem) ensureSub() *rand.Rand {
	if s.sub == nil {
		s.sub = rand.New(new(splitmixSource))
	}
	return s.sub
}

// BeginTrial restores the pristine grid and samples array TTFs at their
// nominal currents.
func (s *GridSystem) BeginTrial(rng *rand.Rand) error {
	n := s.NumComponents()
	if s.alive == nil {
		s.alive = make([]bool, n)
		s.baseTTF = make([]float64, n)
		s.iNow = make([]float64, n)
	}
	// Restore the vias opened by the previous trial and put the circuit into
	// its canonical pristine state (matrix values and right-hand side), so
	// trial outcomes do not depend on which trials ran before on this
	// system instance. A clean circuit (weakest-link trials, cascades that
	// stayed on the update path, or a fresh system) skips the restore.
	if s.circuitDirty {
		s.circuit.ResetResistors()
		s.circuitDirty = false
	}
	if s.cascade != nil {
		s.cascade.begin()
	}
	for k := range s.alive {
		s.alive[k] = true
	}
	s.failedCount = 0
	copy(s.iNow, s.i0)
	s.opNow = s.op0
	if s.candidates == nil {
		for k, v := range s.cfg.Grid.Vias {
			var model viaarray.TTFModel
			if s.cfg.PerViaModels != nil {
				model = s.cfg.PerViaModels[k]
			} else {
				model = s.cfg.Models[v.Pattern]
			}
			s.baseTTF[k] = model.Sample(rng, s.i0[k])
			if s.cfg.TTFScale != nil {
				s.baseTTF[k] *= s.cfg.TTFScale[k]
			}
		}
	} else {
		// Masked sampling: one base draw from the trial stream, then an
		// independent substream per candidate. Exactly one draw is taken
		// from rng whatever the mask, and substream seeds depend only on
		// (base, k), which is what makes screened runs mask-monotone.
		base := rng.Int63()
		sub := s.ensureSub()
		for k, v := range s.cfg.Grid.Vias {
			if !s.candidates[k] {
				s.baseTTF[k] = math.Inf(1)
				continue
			}
			var model viaarray.TTFModel
			if s.cfg.PerViaModels != nil {
				model = s.cfg.PerViaModels[k]
			} else {
				model = s.cfg.Models[v.Pattern]
			}
			sub.Seed(subSeed(base, k))
			s.baseTTF[k] = model.Sample(sub, s.i0[k])
			if s.cfg.TTFScale != nil {
				s.baseTTF[k] *= s.cfg.TTFScale[k]
			}
		}
	}
	return nil
}

// BaseTTF returns array k's sampled TTF.
func (s *GridSystem) BaseTTF(k int) float64 { return s.baseTTF[k] }

// AgingRate returns (I_now/I_0)² for array k.
func (s *GridSystem) AgingRate(k int) float64 {
	if !s.alive[k] || s.i0[k] <= 0 {
		return 0
	}
	r := s.iNow[k] / s.i0[k]
	return r * r
}

// Fail opens via array k and redistributes the grid currents. Under the
// weakest-link criterion the re-solve is skipped: the trial is already over.
func (s *GridSystem) Fail(k int) error {
	if !s.alive[k] {
		return fmt.Errorf("pdn: via array %d already failed", k)
	}
	s.alive[k] = false
	s.failedCount++
	if s.cfg.Criterion == WeakestLink {
		// The trial is already over; nothing reads the matrix before the
		// next BeginTrial, so leave the circuit pristine instead of paying
		// the open-and-restore round trip on the factored system.
		return nil
	}
	dst := s.opA
	if s.opNow == s.opA {
		dst = s.opB
	}
	if err := s.redistribute(k, dst); err != nil {
		return err
	}
	s.opNow = dst
	op := dst
	for i, v := range s.cfg.Grid.Vias {
		if s.candidates != nil && !s.candidates[i] {
			continue // never scheduled: its aging rate is never read
		}
		if s.alive[i] {
			s.iNow[i] = math.Abs(op.ResistorCurrent(v.ResistorIndex))
		} else {
			s.iNow[i] = 0
		}
	}
	return nil
}

// redistribute solves the grid with via array k open into dst. The cascade
// updates its solution against the pristine factor; when the update is
// ill-conditioned, the failed arrays are opened in the circuit and it is
// refactored and re-solved.
func (s *GridSystem) redistribute(k int, dst *spice.OP) error {
	ri := s.cfg.Grid.Vias[k].ResistorIndex
	if !s.cascade.fallback {
		ok, err := s.cascade.open(s.circuit, ri)
		if err != nil {
			return fmt.Errorf("pdn: cascade update after failing array %d: %w", k, err)
		}
		if ok {
			return s.circuit.ScatterFree(dst, s.cascade.x)
		}
		// The failure (nearly) islands part of the grid: refactor-and-solve
		// for the rest of the trial, starting with every array failed so far.
		s.cascade.fallback = true
		for i, v := range s.cfg.Grid.Vias {
			if !s.alive[i] && i != k {
				if err := s.circuit.DisableResistor(v.ResistorIndex); err != nil {
					return err
				}
			}
		}
	}
	if err := s.circuit.DisableResistor(ri); err != nil {
		return err
	}
	s.circuitDirty = true
	if err := s.circuit.SolveDCInto(dst); err != nil {
		return fmt.Errorf("pdn: re-solve after failing array %d: %w", k, err)
	}
	return nil
}

// Failed evaluates the system criterion.
func (s *GridSystem) Failed() (bool, error) {
	switch s.cfg.Criterion {
	case WeakestLink:
		return s.failedCount >= 1, nil
	case IRDrop:
		if s.opNow == nil {
			return false, nil
		}
		return s.opNow.WorstIRDropFrac(s.cfg.Grid.Spec.Vdd) >= s.cfg.IRDropFrac, nil
	}
	return false, fmt.Errorf("pdn: unknown criterion %d", int(s.cfg.Criterion))
}

// ComponentLabel names via array k by its pattern and mesh position, e.g.
// "Plus-shaped(3,4)" (mc.ComponentLabeler — trace output only).
func (s *GridSystem) ComponentLabel(k int) string {
	v := s.cfg.Grid.Vias[k]
	return fmt.Sprintf("%s(%d,%d)", v.Pattern, v.IX, v.IY)
}

// FailedCount returns the number of failed arrays in the current trial.
func (s *GridSystem) FailedCount() int { return s.failedCount }

// WorstIRDropFrac exposes the current worst IR drop (for tests/diagnostics).
func (s *GridSystem) WorstIRDropFrac() float64 {
	if s.opNow == nil {
		return 0
	}
	return s.opNow.WorstIRDropFrac(s.cfg.Grid.Spec.Vdd)
}

// AnalyzeTTF runs the grid-level Monte Carlo (Algorithm 1, step 2) with
// trials independent across workers. One master system is compiled, ordered
// and factored up front; every worker gets a clone of it, which shares the
// immutable symbolic work and stays bit-identical to a serial run over the
// master.
func AnalyzeTTF(cfg TTFConfig, trials int, seed int64) (*mc.Result, error) {
	return AnalyzeTTFCtx(context.Background(), cfg, trials, seed, mc.Options{})
}

// AnalyzeTTFCtx is AnalyzeTTF with cancellation and a caller-supplied option
// base: Workers (the per-job worker budget of the analysis service),
// TraceLabel and FirstTrial (the trial-range offset of a
// distributed shard — trial t always derives its generator from
// trialSeed(seed, t) whichever shard runs it) are honored; Trials, Seed,
// Solver and the criterion trace label are filled in here. Results are
// bit-identical for any worker budget and any shard partition thanks to
// mc's per-trial seed splitting.
func AnalyzeTTFCtx(ctx context.Context, cfg TTFConfig, trials int, seed int64, base mc.Options) (*mc.Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	master, err := NewSystemCtx(ctx, cfg)
	if err != nil {
		return nil, err
	}
	opt := base
	opt.Trials = trials
	opt.Seed = seed
	if opt.TraceLabel == "" {
		opt.TraceLabel = "grid:" + cfg.Criterion.String()
	}
	opt.Solver = master.circuit.SolverBackend()
	endMC := trace.TimelineFrom(ctx).Stage("mc")
	defer endMC()
	return mc.RunParallelCtx(ctx, func() (mc.System, error) {
		return master.Clone(), nil
	}, opt)
}

// AnalyzeTTFScreened is the -engine=both pipeline: it runs the linear-time
// steady-state screen against the pristine operating point, feeds the mortal
// set into the grid Monte Carlo as the candidate mask, and asserts at run
// end that every observed failure was classified mortal — a violated
// assertion means the screen's conservatism contract broke and the pruned
// statistics cannot be trusted, so it surfaces as an error alongside the
// results rather than silently.
func AnalyzeTTFScreened(cfg TTFConfig, trials int, seed int64, sc ScreenConfig) (*mc.Result, *GridScreen, error) {
	return AnalyzeTTFScreenedCtx(context.Background(), cfg, trials, seed, sc, mc.Options{})
}

// AnalyzeTTFScreenedCtx is AnalyzeTTFScreened with cancellation and a
// caller-supplied option base (see AnalyzeTTFCtx). The screen itself is a
// single linear pass and runs to completion; the context bounds the Monte
// Carlo that follows it.
func AnalyzeTTFScreenedCtx(ctx context.Context, cfg TTFConfig, trials int, seed int64, sc ScreenConfig, base mc.Options) (*mc.Result, *GridScreen, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	master, err := NewSystemCtx(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	tl := trace.TimelineFrom(ctx)
	endScreen := tl.Stage("screen")
	screen, err := master.SteadyScreen(sc)
	endScreen()
	if err != nil {
		return nil, nil, err
	}
	if screen.MortalVias == 0 {
		return nil, screen, fmt.Errorf("pdn: steady screen classified every via array immortal; nothing for the Monte Carlo to simulate (criterion %s)", cfg.Criterion)
	}
	opt := base
	opt.Trials = trials
	opt.Seed = seed
	opt.Engine = mc.EngineBoth
	opt.Candidates = screen.CandidateMask()
	if opt.TraceLabel == "" {
		opt.TraceLabel = "grid:" + cfg.Criterion.String()
	}
	opt.Solver = master.circuit.SolverBackend()
	endMC := tl.Stage("mc")
	res, err := mc.RunParallelCtx(ctx, func() (mc.System, error) {
		return master.Clone(), nil
	}, opt)
	endMC()
	if err != nil {
		return nil, screen, err
	}
	if miss := res.MaskMisses(screen.ViaMortal); len(miss) > 0 {
		return res, screen, fmt.Errorf("pdn: screened run observed %d failure(s) outside the steady mortal set (first: via array %d)", len(miss), miss[0])
	}
	return res, screen, nil
}
