package pdn

import (
	"math/rand"
	"testing"

	"emvia/internal/spice"
)

// TestTrialLoopZeroAlloc pins the allocation budget of the Monte-Carlo hot
// path: once a GridSystem has run one warm-up trial (building the cached
// factor and scratch state), BeginTrial → Fail → Failed cycles must not
// touch the heap — on the dense backend's downdate path and on the sparse
// backend's factor-once cascade.
func TestTrialLoopZeroAlloc(t *testing.T) {
	for _, mode := range []spice.SolverMode{spice.SolverDefault, spice.SolverSparse} {
		t.Run(mode.String(), func(t *testing.T) {
			prev := spice.DefaultSolver()
			spice.SetDefaultSolver(mode)
			defer spice.SetDefaultSolver(prev)
			g := mustGrid(t, smallSpec(), 0.05)
			cfg := TTFConfig{
				Grid:       g,
				Models:     testModels(refCurrentOf(t, g)),
				Criterion:  IRDrop,
				IRDropFrac: 0.10,
			}
			s, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if (s.cascade != nil) != (mode == spice.SolverSparse) {
				t.Fatalf("backend %s: cascade %v", s.circuit.SolverBackend(), s.cascade != nil)
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
			// Warm-up trial: lazily builds the pristine dense factor and its
			// snapshot, or the cascade's update vectors, and the per-trial
			// buffers.
			if err := trial(); err != nil {
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
