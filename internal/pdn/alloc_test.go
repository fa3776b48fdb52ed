package pdn

import (
	"math/rand"
	"testing"
)

// TestTrialLoopZeroAlloc pins the allocation budget of the Monte-Carlo hot
// path: once a GridSystem has run one warm-up trial (building the per-trial
// buffers and, for IR drop, the cascade's update vectors), BeginTrial → Fail
// → Failed cycles must not touch the heap. "default" leaves the criterion at
// its zero value (weakest link, no circuit re-solve); "sparse" runs the IR-drop
// criterion's factor-once cascade on the scalar sparse factor.
func TestTrialLoopZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func(t *testing.T, g *Grid) TTFConfig
	}{
		{"default", func(t *testing.T, g *Grid) TTFConfig {
			return TTFConfig{Grid: g, Models: testModels(refCurrentOf(t, g))}
		}},
		{"sparse", func(t *testing.T, g *Grid) TTFConfig {
			return TTFConfig{
				Grid:       g,
				Models:     testModels(refCurrentOf(t, g)),
				Criterion:  IRDrop,
				IRDropFrac: 0.10,
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSystem(tc.cfg(t, mustGrid(t, smallSpec(), 0.05)))
			if err != nil {
				t.Fatal(err)
			}
			if s.cfg.Criterion == IRDrop {
				if s.cascade == nil {
					t.Fatalf("no cascade on an IR-drop system (backend %s)", s.circuit.SolverBackend())
				}
				if got := s.circuit.SolverBackend(); got != tc.name {
					t.Fatalf("SolverBackend() = %q, want %q", got, tc.name)
				}
			}
			rng := rand.New(rand.NewSource(99))
			trial := func() error {
				if err := s.BeginTrial(rng); err != nil {
					return err
				}
				for k := 0; k < 3; k++ {
					if err := s.Fail(k); err != nil {
						return err
					}
					if _, err := s.Failed(); err != nil {
						return err
					}
				}
				return nil
			}
			if err := trial(); err != nil { // warm-up
				t.Fatal(err)
			}
			var trialErr error
			allocs := testing.AllocsPerRun(20, func() {
				if err := trial(); err != nil {
					trialErr = err
				}
			})
			if trialErr != nil {
				t.Fatal(trialErr)
			}
			if allocs != 0 {
				t.Errorf("trial loop allocates %.1f objects per trial, want 0", allocs)
			}
		})
	}
}
