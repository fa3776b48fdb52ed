package viaarray

import (
	"fmt"
	"math"

	"emvia/internal/steady"
)

// ArrayScreen is the steady-state classification of one via array's stack:
// the two wire chains screened as interconnect trees and every via of the
// array classified immortal/mortal against a critical-stress quantile.
type ArrayScreen struct {
	// Wire is the tree-level screen of the bottom and top chains (two
	// trees; the vias' liner barriers keep them separate).
	Wire *steady.Report
	// ViaStress, ViaMargin and ViaMortal classify each via in flat
	// row-major order (the Array component order): steady stress cap at
	// the via barriers including its thermomechanical pre-stress, headroom
	// to the critical stress (negative = mortal), and the verdict.
	ViaStress []float64
	ViaMargin []float64
	ViaMortal []bool
	// MortalVias counts the mortal entries.
	MortalVias int
	// SigmaCrit is the resolved critical-stress threshold, Pa.
	SigmaCrit float64
}

// MortalFraction is the fraction of vias classified mortal.
func (s *ArrayScreen) MortalFraction() float64 {
	if len(s.ViaMortal) == 0 {
		return 0
	}
	return float64(s.MortalVias) / float64(len(s.ViaMortal))
}

// SteadyScreen classifies the pristine array against the steady-state
// stress of its corner-fed network: each chain is walked once as an
// interconnect tree (σ = χ·(V̄ − V)) and each via is screened on the
// unsigned steady deviation at its two junction nodes plus half its own
// drop, with its thermomechanical pre-stress added, against the
// critQuantile quantile of the critical-stress distribution (0 selects
// 1e-3). The screen always evaluates the physical corner-fed network —
// UniformFeed is a crowding-free idealization for sensitivity studies and
// has no voltage profile to screen.
func (cfg Config) SteadyScreen(critQuantile float64) (*ArrayScreen, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if critQuantile == 0 {
		critQuantile = 1e-3
	}
	if critQuantile < 0 || critQuantile >= 1 {
		return nil, fmt.Errorf("viaarray: critical-stress quantile %g outside (0,1)", critQuantile)
	}
	a, err := New(cfg)
	if err != nil {
		return nil, err
	}
	n := cfg.N
	n2 := n * n
	// The voltages are the array's solve scratch; the steady graph keeps
	// its own copy.
	v, err := a.solveNetwork(a.totalCurrent)
	if err != nil {
		return nil, err
	}
	v = append([]float64(nil), v...)
	// Two chains, vias excluded: bottom columns 0..n−1, top rows n..2n−1.
	// No blocked nodes — the modeled metal ends at the feed and extraction
	// terminals, so each chain conserves its own atoms.
	sg := &steady.Graph{
		NumNodes: 2 * n,
		V:        v,
		Blocked:  make([]bool, 2*n),
	}
	for i := 0; i < n-1; i++ {
		sg.Branches = append(sg.Branches,
			steady.Branch{A: i, B: i + 1},
			steady.Branch{A: n + i, B: n + i + 1})
	}
	dist, err := cfg.EM.SigmaCDist()
	if err != nil {
		return nil, fmt.Errorf("viaarray: critical-stress distribution: %w", err)
	}
	sigmaCrit := dist.Quantile(critQuantile)
	rep, err := steady.Screen(sg, steady.Config{EM: cfg.EM, SigmaCrit: sigmaCrit})
	if err != nil {
		return nil, err
	}
	out := &ArrayScreen{
		Wire:      rep,
		ViaStress: make([]float64, n2),
		ViaMargin: make([]float64, n2),
		ViaMortal: make([]bool, n2),
		SigmaCrit: sigmaCrit,
	}
	for row := 0; row < n; row++ {
		for col := 0; col < n; col++ {
			k := a.viaIndex(col, row)
			dev := math.Abs(rep.Stress[col])
			if d := math.Abs(rep.Stress[n+row]); d > dev {
				dev = d
			}
			dev += rep.Chi * math.Abs(v[col]-v[n+row]) / 2
			stress := cfg.SigmaT[row][col] + dev
			out.ViaStress[k] = stress
			out.ViaMargin[k] = sigmaCrit - stress
			if a.totalCurrent > 0 && stress >= sigmaCrit {
				out.ViaMortal[k] = true
				out.MortalVias++
			}
		}
	}
	return out, nil
}
