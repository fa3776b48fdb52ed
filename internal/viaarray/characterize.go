package viaarray

import (
	"fmt"
	"math"
	"math/rand"

	"emvia/internal/mc"
	"emvia/internal/stat"
)

// TTFModel is the product of via-array characterization: a two-parameter
// lognormal TTF distribution at a reference array current, with the 1/I²
// scaling of equation (3) used to re-target it to the current an array
// actually carries in a power grid (paper §5.1: "the TTF of the via array is
// fitted to a two-parameter lognormal distribution that is sampled during
// power grid TTF analysis").
type TTFModel struct {
	// Dist is the fitted lognormal of the array TTF in seconds at
	// RefCurrent.
	Dist stat.LogNormal
	// RefCurrent is the total array current (A) of the characterization.
	RefCurrent float64
	// FailK is the via-array failure criterion the model was fitted for.
	FailK int
}

// Scale returns the TTF multiplier for an array carrying current (A):
// TTF ∝ 1/I², so arrays carrying less than the reference live longer.
func (m TTFModel) Scale(current float64) float64 {
	if current <= 0 {
		return math.Inf(1)
	}
	r := m.RefCurrent / current
	return r * r
}

// Sample draws an array TTF (seconds) at the given total current.
func (m TTFModel) Sample(rng *rand.Rand, current float64) float64 {
	s := m.Scale(current)
	if math.IsInf(s, 1) {
		return math.Inf(1)
	}
	return m.Dist.Sample(rng) * s
}

// CharResult is a via-array reliability characterization. The run goes to
// completion, so one CharResult carries every n_F criterion; ForFailK
// derives the view of another criterion from it.
type CharResult struct {
	// Config echoes the characterized configuration.
	Config Config
	// MC holds the raw Monte-Carlo outcome (run to completion, so the
	// failure times of every n_F criterion are available). Its Events and
	// EventComps may be shared read-only with the views ForFailK derives;
	// its TTF is this result's own, under Config.FailK.
	MC *mc.Result
	// Samples are the finite system TTFs (seconds) under Config.FailK.
	Samples []float64
	// Model is the lognormal fit of Samples at the reference current.
	Model TTFModel
}

// Characterize runs the Algorithm-1 Monte Carlo for the array and fits the
// lognormal TTF model. Trials follow the paper's N_trials (500 unless the
// caller needs tighter tails).
func Characterize(cfg Config, trials int, seed int64) (*CharResult, error) {
	return CharacterizeNamed(cfg, trials, seed, "")
}

// CharacterizeNamed is Characterize with an explicit trace run label (e.g.
// "array:Plus-shaped:3x3"); empty falls back to "viaarray".
func CharacterizeNamed(cfg Config, trials int, seed int64, traceLabel string) (*CharResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if traceLabel == "" {
		traceLabel = "viaarray"
	}
	res, err := mc.RunParallel(func() (mc.System, error) { return New(cfg) }, mc.Options{
		Trials:          trials,
		Seed:            seed,
		RunToCompletion: true,
		TraceLabel:      traceLabel,
	})
	if err != nil {
		return nil, fmt.Errorf("viaarray: characterization MC: %w", err)
	}
	samples := res.FiniteTTF()
	if len(samples) < 2 {
		return nil, fmt.Errorf("viaarray: only %d finite TTF samples; array never reaches criterion n_F=%d", len(samples), cfg.FailK)
	}
	model, err := fitModel(cfg, samples)
	if err != nil {
		return nil, err
	}
	return &CharResult{Config: cfg, MC: res, Samples: samples, Model: model}, nil
}

// fitModel fits the lognormal TTF model of samples under cfg.FailK at the
// configuration's reference current.
func fitModel(cfg Config, samples []float64) (TTFModel, error) {
	fit, err := stat.FitLogNormal(samples)
	if err != nil {
		return TTFModel{}, fmt.Errorf("viaarray: fitting TTF lognormal: %w", err)
	}
	return TTFModel{
		Dist:       fit,
		RefCurrent: cfg.CurrentDensity * cfg.ViaArea,
		FailK:      cfg.FailK,
	}, nil
}

// CriterionSamples returns the system TTFs under an alternative criterion
// n_F (the k-th via failure times), reusing the run-to-completion events.
func (c *CharResult) CriterionSamples(nF int) []float64 {
	return c.MC.KthFailureTimes(nF)
}

// CriterionModel fits a TTFModel for an alternative criterion n_F from the
// same Monte-Carlo run.
func (c *CharResult) CriterionModel(nF int) (TTFModel, error) {
	samples := c.CriterionSamples(nF)
	if len(samples) < 2 {
		return TTFModel{}, fmt.Errorf("viaarray: criterion n_F=%d has %d samples", nF, len(samples))
	}
	cfg := c.Config
	cfg.FailK = nF
	return fitModel(cfg, samples)
}

// ForFailK returns the characterization under criterion n_F = k, derived from
// this run-to-completion result without re-running the Monte Carlo. Because
// the criterion only decides when a trial records its system TTF, never
// which via fails next, the view is bit for bit what Characterize would
// return for the same configuration with FailK = k: its samples are the k-th
// failure times, its MC.TTF[t] is Events[t][k−1] (+Inf when trial t saw
// fewer than k failures). The view shares Events and EventComps read-only
// with c. It returns c itself when k is already its criterion.
func (c *CharResult) ForFailK(k int) (*CharResult, error) {
	if k == c.Config.FailK {
		return c, nil
	}
	cfg := c.Config
	cfg.FailK = k
	samples := c.CriterionSamples(k)
	if len(samples) < 2 {
		return nil, fmt.Errorf("viaarray: only %d finite TTF samples; array never reaches criterion n_F=%d", len(samples), k)
	}
	model, err := fitModel(cfg, samples)
	if err != nil {
		return nil, err
	}
	ttf := make([]float64, len(c.MC.Events))
	for t, ev := range c.MC.Events {
		ttf[t] = math.Inf(1)
		if k <= len(ev) {
			ttf[t] = ev[k-1]
		}
	}
	res := *c.MC
	res.TTF = ttf
	return &CharResult{Config: cfg, MC: &res, Samples: samples, Model: model}, nil
}
