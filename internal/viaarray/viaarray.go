// Package viaarray models an n×n power-grid via array as a redundant
// electrical system (paper §4): each via is a failable component whose TTF
// follows the stress-dependent nucleation model of package emdist, and whose
// current is set by a resistive network that captures current crowding and
// the redistribution that follows via failures.
//
// The network has one bottom-wire node per via column and one top-wire node
// per via row; via (col, row) bridges them. Current enters the bottom wire
// on its x− side and leaves the top wire on its y+ side (the canonical
// corner-feed of a power-grid mesh intersection), so perimeter vias near the
// feed carry more current than interior vias. When vias fail they are
// removed from the network and the survivors inherit their current, aging
// faster (TTF ∝ 1/j²).
package viaarray

import (
	"fmt"
	"math"
	"math/rand"

	"emvia/internal/cudd"
	"emvia/internal/emdist"
	"emvia/internal/phys"
	"emvia/internal/solver"
)

// FeedMode selects how current enters and leaves the array network.
type FeedMode int

// Feed modes.
const (
	// CornerFeed injects at the first bottom column and extracts at the
	// last top row: the default, maximizing current crowding.
	CornerFeed FeedMode = iota
	// UniformFeed forces equal current through every via (no crowding);
	// used by the ablation benchmarks to isolate the crowding effect.
	UniformFeed
)

// Config describes a via array system.
type Config struct {
	// N is the array dimension (n×n vias).
	N int
	// SigmaT is the per-via thermomechanical stress, Pa, [row][col]
	// (row = y index, col = x index), from the FEA characterization.
	SigmaT [][]float64
	// EM is the nucleation model parameter set.
	EM emdist.Params
	// CurrentDensity is the total array current density, A/m², over
	// ViaArea (paper: 1e10 A/m²).
	CurrentDensity float64
	// ViaArea is the summed via cross-section, m² (paper: 1 µm²).
	ViaArea float64
	// RVia is the per-via resistance, Ω.
	RVia float64
	// RSegBottom and RSegTop are the wire resistances between adjacent via
	// columns (bottom wire) and rows (top wire), Ω.
	RSegBottom, RSegTop float64
	// FailK is the array failure criterion n_F: the array is deemed failed
	// when FailK vias have failed. n² means open circuit (R = ∞); with the
	// gap-free parallel approximation of equation (5), n²/2 corresponds to
	// R = 2×.
	FailK int
	// Feed selects the current feed topology.
	Feed FeedMode
	// DisableAging freezes the damage rate at 1 even after current
	// redistribution, ignoring the TTF ∝ 1/j² acceleration of survivors.
	// Used by the ablation benchmarks to isolate the aging effect.
	DisableAging bool
}

// FromStructure derives the electrical configuration from a Cu DD structure
// and its characterized per-via stresses. rhoViaFactor scales the copper
// resistivity to account for liner and size effects in the via (typical ~5);
// zero selects 5.
func FromStructure(p cudd.Params, sigmaT [][]float64, em emdist.Params, j float64, failK int, rhoViaFactor float64) (Config, error) {
	p, err := p.Validate()
	if err != nil {
		return Config{}, err
	}
	if rhoViaFactor == 0 {
		rhoViaFactor = 5
	}
	n := p.ArrayN
	aVia := p.ViaArea / float64(n*n)
	pitch := p.Pitch()
	tBottom := p.MetalThicknessIntermediate
	if p.LayerPair.Lower == cudd.Top {
		tBottom = p.MetalThicknessTop
	}
	tTop := p.MetalThicknessIntermediate
	if p.LayerPair.Upper == cudd.Top {
		tTop = p.MetalThicknessTop
	}
	cfg := Config{
		N:              n,
		SigmaT:         sigmaT,
		EM:             em,
		CurrentDensity: j,
		ViaArea:        p.ViaArea,
		RVia:           rhoViaFactor * em.Rho * p.ViaHeight / aVia,
		RSegBottom:     em.Rho * pitch / (p.WireWidth * tBottom),
		RSegTop:        em.Rho * pitch / (p.WireWidth * tTop),
		FailK:          failK,
	}
	return cfg, nil
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N < 1 {
		return fmt.Errorf("viaarray: N must be ≥ 1, got %d", c.N)
	}
	if len(c.SigmaT) != c.N {
		return fmt.Errorf("viaarray: SigmaT has %d rows, want %d", len(c.SigmaT), c.N)
	}
	for i, row := range c.SigmaT {
		if len(row) != c.N {
			return fmt.Errorf("viaarray: SigmaT row %d has %d entries, want %d", i, len(row), c.N)
		}
	}
	if err := c.EM.Validate(); err != nil {
		return err
	}
	if c.CurrentDensity <= 0 {
		return fmt.Errorf("viaarray: CurrentDensity must be positive, got %g", c.CurrentDensity)
	}
	if c.ViaArea <= 0 {
		return fmt.Errorf("viaarray: ViaArea must be positive, got %g", c.ViaArea)
	}
	if c.RVia <= 0 {
		return fmt.Errorf("viaarray: RVia must be positive, got %g", c.RVia)
	}
	if c.RSegBottom < 0 || c.RSegTop < 0 {
		return fmt.Errorf("viaarray: wire segment resistances must be ≥ 0")
	}
	if c.FailK < 1 || c.FailK > c.N*c.N {
		return fmt.Errorf("viaarray: FailK must be in [1, %d], got %d", c.N*c.N, c.FailK)
	}
	return nil
}

// DeltaRFraction evaluates equation (5): the fractional resistance increase
// of an n-via parallel array after nF failures, ΔR/R = nF/(n−nF). It is +Inf
// when all vias fail.
func DeltaRFraction(n, nF int) float64 {
	if nF >= n {
		return math.Inf(1)
	}
	return float64(nF) / float64(n-nF)
}

// FailKForResistanceFactor returns the smallest n_F whose equation-(5)
// resistance increase reaches the given factor: factor 2 means R = 2×R0
// (half the vias), +Inf means open circuit (all vias).
func FailKForResistanceFactor(n int, factor float64) int {
	total := n * n
	if math.IsInf(factor, 1) {
		return total
	}
	for k := 1; k <= total; k++ {
		if 1+DeltaRFraction(total, k) >= factor {
			return k
		}
	}
	return total
}

// Array is the mc.System implementation for one via array. It owns the
// scratch of its trial loop — liveness, currents, sampled TTFs, the stamped
// network matrix, its right-hand side, the node voltages and the dense
// factor — and reuses it across trials, so BeginTrial and Fail allocate
// nothing once the factor exists. An Array is therefore not safe for
// concurrent use; mc.RunParallel builds one per worker through its factory.
type Array struct {
	cfg Config

	totalCurrent float64   // A
	sigmaFlat    []float64 // row-major σ_T
	alive        []bool
	baseTTF      []float64
	j0, jNow     []float64
	failedCount  int

	g, rhs, v []float64             // nodal matrix (ground eliminated), RHS, voltages
	ch        *solver.DenseCholesky // built on the first solve, refactored in place after
}

// New builds the system. The configuration is validated once here.
func New(cfg Config) (*Array, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.N
	n2 := n * n
	dim := 2*n - 1 // network nodes with the ground eliminated
	a := &Array{
		cfg:          cfg,
		totalCurrent: cfg.CurrentDensity * cfg.ViaArea,
		sigmaFlat:    make([]float64, 0, n2),
		alive:        make([]bool, n2),
		baseTTF:      make([]float64, n2),
		j0:           make([]float64, n2),
		jNow:         make([]float64, n2),
		g:            make([]float64, dim*dim),
		rhs:          make([]float64, dim),
		v:            make([]float64, dim+1),
	}
	for _, row := range cfg.SigmaT {
		a.sigmaFlat = append(a.sigmaFlat, row...)
	}
	// Pristine until the first trial, so Resistance works before one.
	for i := range a.alive {
		a.alive[i] = true
	}
	return a, nil
}

// NumComponents returns n².
func (a *Array) NumComponents() int { return a.cfg.N * a.cfg.N }

// viaIndex maps (col, row) to the flat component index.
func (a *Array) viaIndex(col, row int) int { return row*a.cfg.N + col }

// ComponentLabel names via i as "via(col,row)" for trace output
// (mc.ComponentLabeler).
func (a *Array) ComponentLabel(i int) string {
	return fmt.Sprintf("via(%d,%d)", i%a.cfg.N, i/a.cfg.N)
}

// BeginTrial resets the network and samples fresh via TTFs at the trial-
// start currents.
func (a *Array) BeginTrial(rng *rand.Rand) error {
	for i := range a.alive {
		a.alive[i] = true
	}
	a.failedCount = 0
	if err := a.solveCurrents(a.j0); err != nil {
		return err
	}
	copy(a.jNow, a.j0)
	for i := range a.baseTTF {
		a.baseTTF[i] = a.cfg.EM.SampleTTF(rng, a.sigmaFlat[i], a.j0[i])
	}
	return nil
}

// BaseTTF returns via i's sampled TTF.
func (a *Array) BaseTTF(i int) float64 { return a.baseTTF[i] }

// AgingRate returns (j_now/j_0)² for via i, the TTF ∝ 1/j² damage-rate
// scaling of equation (3).
func (a *Array) AgingRate(i int) float64 {
	if !a.alive[i] || a.j0[i] <= 0 {
		return 0
	}
	if a.cfg.DisableAging {
		return 1
	}
	r := a.jNow[i] / a.j0[i]
	return r * r
}

// Fail removes via i from the network and redistributes current.
func (a *Array) Fail(i int) error {
	if !a.alive[i] {
		return fmt.Errorf("viaarray: via %d already failed", i)
	}
	a.alive[i] = false
	a.failedCount++
	if a.failedCount == a.NumComponents() {
		for k := range a.jNow {
			a.jNow[k] = 0
		}
		return nil
	}
	return a.solveCurrents(a.jNow)
}

// Failed reports whether FailK vias have failed.
func (a *Array) Failed() (bool, error) {
	return a.failedCount >= a.cfg.FailK, nil
}

// FailedCount returns the number of failed vias in the current trial state.
func (a *Array) FailedCount() int { return a.failedCount }

// solveCurrents writes the per-via current density (A/m²) of the current
// network state into out (length n²); failed vias get 0.
func (a *Array) solveCurrents(out []float64) error {
	n := a.cfg.N
	n2 := n * n
	for i := range out {
		out[i] = 0
	}
	aliveCount := 0
	for _, al := range a.alive {
		if al {
			aliveCount++
		}
	}
	if aliveCount == 0 {
		return nil
	}
	aVia := a.cfg.ViaArea / float64(n2)

	if a.cfg.Feed == UniformFeed {
		per := a.totalCurrent / float64(aliveCount)
		for i := 0; i < n2; i++ {
			if a.alive[i] {
				out[i] = per / aVia
			}
		}
		return nil
	}

	v, err := a.solveNetwork(a.totalCurrent)
	if err != nil {
		return err
	}
	gVia := 1 / a.cfg.RVia
	for row := 0; row < n; row++ {
		for col := 0; col < n; col++ {
			k := a.viaIndex(col, row)
			if !a.alive[k] {
				continue
			}
			i := (v[col] - v[n+row]) * gVia
			out[k] = math.Abs(i) / aVia
		}
	}
	return nil
}

// solveNetwork solves the nodal system for an injected current at the feed
// terminal and returns the node voltages (bottom columns 0..n−1, top rows
// n..2n−1; the extraction terminal, the last top row, is ground with
// voltage 0). The returned slice is the array's scratch: it is valid until
// the next solve.
func (a *Array) solveNetwork(injected float64) ([]float64, error) {
	n := a.cfg.N
	nn := 2 * n
	ground := nn - 1
	dim := nn - 1 // ground eliminated
	idx := func(node int) int {
		if node == ground {
			return -1
		}
		return node
	}
	g := a.g
	for i := range g {
		g[i] = 0
	}
	stamp := func(p, q int, cond float64) {
		ip, iq := idx(p), idx(q)
		if ip >= 0 {
			g[ip*dim+ip] += cond
		}
		if iq >= 0 {
			g[iq*dim+iq] += cond
		}
		if ip >= 0 && iq >= 0 {
			g[ip*dim+iq] -= cond
			g[iq*dim+ip] -= cond
		}
	}
	// Wire chains. A zero segment resistance means the wire is ideal; use a
	// very large conductance rather than merging nodes.
	segCond := func(r float64) float64 {
		if r <= 0 {
			return 1e12
		}
		return 1 / r
	}
	for i := 0; i < n-1; i++ {
		stamp(i, i+1, segCond(a.cfg.RSegBottom))
		stamp(n+i, n+i+1, segCond(a.cfg.RSegTop))
	}
	gVia := 1 / a.cfg.RVia
	for row := 0; row < n; row++ {
		for col := 0; col < n; col++ {
			if a.alive[a.viaIndex(col, row)] {
				stamp(col, n+row, gVia)
			}
		}
	}
	// A tiny leak to ground keeps the matrix SPD when parts of the network
	// are isolated from the extraction terminal (e.g. a whole row's vias
	// failed); the leak current is negligible at these conductance scales.
	for i := 0; i < dim; i++ {
		g[i*dim+i] += 1e-9 * gVia
	}
	for i := range a.rhs {
		a.rhs[i] = 0
	}
	a.rhs[0] = injected

	var err error
	if a.ch == nil {
		a.ch, err = solver.NewDenseCholesky(g, dim)
	} else {
		err = a.ch.Refactor(g)
	}
	if err != nil {
		return nil, fmt.Errorf("viaarray: network factorization: %w", err)
	}
	if err := a.ch.SolveInto(a.v[:dim], a.rhs); err != nil {
		return nil, fmt.Errorf("viaarray: network solve: %w", err)
	}
	a.v[ground] = 0
	return a.v, nil
}

// Resistance returns the equivalent resistance (Ω) between the feed
// terminals in the current state — pristine before the first trial, else
// the state the last BeginTrial and Fail calls left; +Inf when every via
// has failed.
func (a *Array) Resistance() (float64, error) {
	if a.failedCount >= a.NumComponents() {
		return math.Inf(1), nil
	}
	return a.feedVoltage()
}

// feedVoltage solves the network with unit current and returns V(feed)/I,
// i.e. the feed-to-feed resistance.
func (a *Array) feedVoltage() (float64, error) {
	v, err := a.solveNetwork(1)
	if err != nil {
		return 0, err
	}
	return v[0], nil
}

// NominalResistance returns the pristine-array feed-to-feed resistance.
func (c Config) NominalResistance() (float64, error) {
	a, err := New(c)
	if err != nil {
		return 0, err
	}
	return a.Resistance()
}

// ReferenceYears is a convenience: the median single-via TTF at the array's
// mean stress and nominal per-via current, in years.
func (c Config) ReferenceYears() float64 {
	mean := 0.0
	for _, row := range c.SigmaT {
		for _, v := range row {
			mean += v
		}
	}
	mean /= float64(c.N * c.N)
	return phys.SecondsToYears(c.EM.MedianTTF(mean, c.CurrentDensity))
}
