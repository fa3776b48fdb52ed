package spice

import "emvia/internal/telemetry"

// circuitMetrics holds the telemetry handles of one compiled circuit. The
// handles are fetched once at compile time, so the per-edit and per-solve
// hot paths record through cached pointers — with telemetry disabled every
// handle is nil and each record call is a nil-receiver no-op.
type circuitMetrics struct {
	slotEdits     *telemetry.Counter
	resets        *telemetry.Counter
	sparseSolves  *telemetry.Counter
	edgeSolves    *telemetry.Counter
	refactors     *telemetry.Counter
	factorSeconds *telemetry.Histogram
}

// newCircuitMetrics snapshots the process-wide registry into per-circuit
// handles and counts the compilation itself.
func newCircuitMetrics() circuitMetrics {
	r := telemetry.Default() // nil when disabled: all handles stay nil
	r.Counter(telemetry.SpiceCompiles).Inc()
	return circuitMetrics{
		slotEdits:     r.Counter(telemetry.SpiceSlotEdits),
		resets:        r.Counter(telemetry.SpiceResets),
		sparseSolves:  r.Counter(telemetry.SpiceSparseSolves),
		edgeSolves:    r.Counter(telemetry.SpiceCascadeEdgeSolves),
		refactors:     r.Counter(telemetry.SpiceCascadeRefactors),
		factorSeconds: r.Histogram(telemetry.SpiceFactorSeconds),
	}
}
