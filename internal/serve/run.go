package serve

import (
	"context"
	"fmt"
	"math"
	"strings"

	"emvia/internal/core"
	"emvia/internal/cudd"
	"emvia/internal/mc"
	"emvia/internal/pdn"
	"emvia/internal/phys"
	"emvia/internal/stat"
	"emvia/internal/trace"
	"emvia/internal/viaarray"
)

// Transient marks an error as retryable: the executor re-attempts the job
// with backoff instead of failing it. Engine errors are deterministic (the
// same spec fails the same way), so the default runner never returns one;
// the classification exists for runners with genuinely transient failure
// modes — remote solver backends, cache filesystems — and for the retry
// tests.
type Transient struct{ Err error }

// Error implements error.
func (t *Transient) Error() string { return "transient: " + t.Err.Error() }

// Unwrap exposes the cause.
func (t *Transient) Unwrap() error { return t.Err }

// buildGrid realizes the spec's grid source: a synthetic generate+calibrate
// or an inline-deck parse. Both paths are deterministic functions of the
// spec.
func buildGrid(spec *JobSpec) (*pdn.Grid, error) {
	if spec.Grid != nil {
		src := spec.Grid
		var gs pdn.GridSpec
		switch strings.ToUpper(src.Name) {
		case "PG2":
			gs = pdn.PG2Spec()
		case "PG5":
			gs = pdn.PG5Spec()
		case "PG1":
			gs = pdn.PG1Spec()
		default:
			gs = pdn.PG1Spec()
			gs.Name = src.Name
		}
		if src.NX > 0 {
			gs.NX = src.NX
		}
		if src.NY > 0 {
			gs.NY = src.NY
		}
		if src.PadPeriod > 0 {
			gs.PadPeriod = src.PadPeriod
		}
		gs.Seed = src.Seed
		gs.Vdd = spec.Vdd
		g, err := pdn.Generate(gs)
		if err != nil {
			return nil, err
		}
		if src.CalibrateIR > 0 {
			if err := g.CalibrateLoad(src.CalibrateIR); err != nil {
				return nil, err
			}
		}
		return g, nil
	}
	gs := pdn.PG1Spec()
	gs.Vdd = spec.Vdd
	return pdn.LoadDeck(strings.NewReader(spec.Deck), gs)
}

// buildModels realizes the spec's analytic TTF models against the grid: a
// zero reference current means "the busiest array of this grid", resolved
// with one pristine solve (deterministic, so the content-hash contract
// holds).
func buildModels(spec *JobSpec, g *pdn.Grid) (map[cudd.Pattern]viaarray.TTFModel, error) {
	var busiest float64
	needBusiest := false
	for _, m := range spec.Models {
		if m.RefCurrentAmps == 0 {
			needBusiest = true
		}
	}
	if needBusiest {
		imax, _, err := g.MaxViaCurrent()
		if err != nil {
			return nil, fmt.Errorf("serve: resolving reference current: %w", err)
		}
		if imax <= 0 {
			return nil, fmt.Errorf("serve: grid carries no via current to reference models against")
		}
		busiest = imax
	}
	patterns := map[string]cudd.Pattern{"plus": cudd.Plus, "t": cudd.TShape, "l": cudd.LShape}
	out := make(map[cudd.Pattern]viaarray.TTFModel, len(spec.Models))
	for key, m := range spec.Models {
		ref := m.RefCurrentAmps
		if ref == 0 {
			ref = busiest
		}
		out[patterns[key]] = viaarray.TTFModel{
			Dist: stat.LogNormal{
				Mu:    math.Log(phys.YearsToSeconds(m.MedianYears)),
				Sigma: m.Sigma,
			},
			RefCurrent: ref,
			FailK:      m.FailK,
		}
	}
	return out, nil
}

// RunOptions parameterizes one Runner execution: the per-job Monte-Carlo
// worker budget, the trace-run label that keys the job's progress and SSE
// cascade stream, and — for distributed shard execution — the trial range
// this run covers. A zero TrialCount selects the spec's full trial range;
// a positive one runs global trials [TrialStart, TrialStart+TrialCount),
// bit-identical to the same slice of a full-range run.
type RunOptions struct {
	Workers    int
	Label      string
	TrialStart int
	TrialCount int
}

// runSpec executes one resolved job spec: the default Runner. The context
// bounds the Monte Carlo (grid build and screening are single solves).
func runSpec(ctx context.Context, spec *JobSpec, ro RunOptions) (*runOutput, error) {
	tl := trace.TimelineFrom(ctx)
	endResolve := tl.Stage("resolve")
	g, err := buildGrid(spec)
	if err != nil {
		endResolve()
		return nil, err
	}
	out := &runOutput{materialHash: core.MaterialHash()}
	if spec.Engine == mc.EngineSteady {
		endResolve()
		screen, err := pdn.ScreenGridCtx(ctx, g, pdn.ScreenConfig{})
		if err != nil {
			return nil, err
		}
		out.screen = screenInfo(screen)
		return out, nil
	}
	models, err := buildModels(spec, g)
	endResolve()
	if err != nil {
		return nil, err
	}
	cfg := pdn.TTFConfig{Grid: g, Models: models}
	switch spec.Criterion {
	case "wl":
		cfg.Criterion = pdn.WeakestLink
	default:
		cfg.Criterion = pdn.IRDrop
		cfg.IRDropFrac = spec.IRFrac
	}
	trials := spec.Trials
	base := mc.Options{Workers: ro.Workers, TraceLabel: ro.Label, Engine: spec.Engine}
	if ro.TrialCount > 0 {
		if ro.TrialStart < 0 || ro.TrialStart+ro.TrialCount > spec.Trials {
			return nil, fmt.Errorf("serve: trial range [%d,%d) outside the spec's [0,%d)",
				ro.TrialStart, ro.TrialStart+ro.TrialCount, spec.Trials)
		}
		base.FirstTrial = ro.TrialStart
		trials = ro.TrialCount
	}
	if spec.Engine == mc.EngineBoth {
		res, screen, err := pdn.AnalyzeTTFScreenedCtx(ctx, cfg, trials, spec.Seed, pdn.ScreenConfig{}, base)
		if err != nil {
			return nil, err
		}
		out.mcResult, out.screen, out.backend = res, screenInfo(screen), res.Solver
	} else {
		base.Engine = mc.EngineMC
		res, err := pdn.AnalyzeTTFCtx(ctx, cfg, trials, spec.Seed, base)
		if err != nil {
			return nil, err
		}
		out.mcResult, out.backend = res, res.Solver
	}
	return out, nil
}
