package spice

import "sync/atomic"

// solverWorkers is the process-wide worker count of the parallel supernodal
// factorization (the -solver-workers flag). 0 = one per CPU.
var solverWorkers atomic.Int32

// SetSolverWorkers sets the process-wide worker count handed to the shared
// solver pool when a circuit builds a supernodal factor: 1 forces a serial
// factorization, 0 (the default) uses one worker per CPU. Negative values are
// treated as 0. The numeric results are bit-identical for every setting; only
// scheduling changes. Circuits that already built their factor keep the pool
// they were built with.
func SetSolverWorkers(n int) {
	if n < 0 {
		n = 0
	}
	solverWorkers.Store(int32(n))
}

// SolverWorkers returns the process-wide supernodal worker count (0 = one
// per CPU).
func SolverWorkers() int { return int(solverWorkers.Load()) }
