package telemetry

// Metric names. Centralizing them here keeps the instrumented packages, the
// derived-metric computation in Snapshot and the documentation (DESIGN.md §8)
// in agreement. Naming scheme: <package>.<subsystem>.<metric>; histogram
// names carry their unit as the final path element.
const (
	// internal/solver — conjugate gradients.
	CGSolves        = "solver.cg.solves"
	CGIterations    = "solver.cg.iterations"
	CGItersPerSolve = "solver.cg.iterations_per_solve"

	// internal/solver — dense Cholesky (via-array networks).
	DenseFactorizations = "solver.dense.factorizations"
	DenseSolves         = "solver.dense.solves"

	// internal/solver — sparse Cholesky (the circuit solve path).
	SparseFactorizations = "solver.sparse.factorizations"
	SparseSolves         = "solver.sparse.solves"

	// internal/spice — the incremental re-solve engine.
	SpiceCompiles      = "spice.compiles"
	SpiceSlotEdits     = "spice.slot_edits"
	SpiceResets        = "spice.resets"
	SpiceSparseSolves  = "spice.solves.sparse"
	SpiceFactorSeconds = "spice.sparse.factor_seconds"
	// Factor-once failure cascades: EdgeSolves counts the correction solves
	// against the shared pristine factor (one per Sherman–Morrison update);
	// Refactors counts refactorizations of an edited matrix, which a
	// cascade only pays on its near-islanding fallback.
	SpiceCascadeEdgeSolves = "spice.cascade.edge_solves"
	SpiceCascadeRefactors  = "spice.cascade.refactors"

	// internal/mc — the sequential-failure Monte-Carlo engine.
	MCTrials           = "mc.trials"
	MCFailuresPerTrial = "mc.failures_per_trial"
	MCTrialSeconds     = "mc.trial_seconds"
	MCFailStepSeconds  = "mc.fail_step_seconds"
	MCRunSeconds       = "mc.run_seconds"
	// Candidate-mask split of a screened (-engine=both) run: candidates are
	// the mortal components the trials simulate, pruned the immortal rest
	// the steady screen removed from sampling and scanning.
	MCCandidateComponents = "mc.screen.candidate_components"
	MCPrunedComponents    = "mc.screen.pruned_components"

	// internal/pdn + internal/steady — the steady-state screening engine.
	SteadyScreens       = "steady.screens"
	SteadyScreenSeconds = "steady.screen_seconds"
	SteadyMortalVias    = "steady.mortal_vias"
	SteadyImmortalVias  = "steady.immortal_vias"

	// internal/fem — the FEA pipeline.
	FEMSolves          = "fem.solves"
	FEMAssemblySeconds = "fem.assembly_seconds"
	FEMSolveSeconds    = "fem.solve_seconds"
	FEMStressSeconds   = "fem.stress_recovery_seconds"

	// internal/core — memoization layers.
	StressMemHits    = "core.stresscache.mem_hits"
	StressMemMisses  = "core.stresscache.mem_misses"
	StressDiskHits   = "core.stresscache.disk_hits"
	StressDiskMisses = "core.stresscache.disk_misses"
	StressDiskBad    = "core.stresscache.disk_corrupt"
	CharHits         = "core.charcache.hits"
	CharMisses       = "core.charcache.misses"

	// internal/serve — the EM-analysis job server. Submitted counts every
	// accepted POST (dedup'd or not); Solves counts actual engine
	// executions, so submitted - dedup hits = solves + failures.
	// QueueDepth and JobsActive are gauges (+1 on enqueue/admit, -1 on
	// dequeue/terminal); LedgerRecords/LedgerErrors count run-ledger
	// appends.
	ServeSubmitted         = "serve.jobs.submitted"
	ServeDedupCacheHits    = "serve.jobs.dedup_cache_hits"
	ServeDedupInflightHits = "serve.jobs.dedup_inflight_hits"
	ServeRejectedFull      = "serve.jobs.rejected_queue_full"
	ServeRejectedDraining  = "serve.jobs.rejected_draining"
	ServeCompleted         = "serve.jobs.completed"
	ServeFailed            = "serve.jobs.failed"
	ServeDeadlineExceeded  = "serve.jobs.deadline_exceeded"
	ServeRetries           = "serve.jobs.retries"
	ServeSolves            = "serve.solves"
	ServeQueueDepth        = "serve.queue.depth"
	ServeJobsActive        = "serve.jobs.active"
	ServeJobSeconds        = "serve.job_seconds"
	ServeQueueWaitSeconds  = "serve.queue_wait_seconds"
	ServeLedgerRecords     = "serve.ledger.records"
	ServeLedgerErrors      = "serve.ledger.errors"

	// internal/serve — distributed trial sharding. Dispatched counts every
	// shard dispatch attempt (first try and re-issues); RemoteRuns/LocalRuns
	// split completed shards by where they executed; Reissues counts
	// dispatches re-issued after a worker failure or timeout; CacheHits are
	// shards answered from the content-addressed partial cache without any
	// run; Errors counts failed dispatch attempts. Served/ServeSeconds
	// instrument the worker side of POST /v1/shards; MergeSeconds and
	// MergeErrors instrument the coordinator's partial-manifest merge.
	ServeShardDispatched   = "serve.shard.dispatched"
	ServeShardRemoteRuns   = "serve.shard.remote_runs"
	ServeShardLocalRuns    = "serve.shard.local_runs"
	ServeShardReissues     = "serve.shard.reissues"
	ServeShardCacheHits    = "serve.shard.cache_hits"
	ServeShardErrors       = "serve.shard.errors"
	ServeShardServed       = "serve.shard.served"
	ServeShardServeSeconds = "serve.shard.serve_seconds"
	ServeShardMergeSeconds = "serve.shard.merge_seconds"
	ServeShardMergeErrors  = "serve.shard.merge_errors"

	// internal/trace — live-ring occupancy, published as gauges at monitor
	// scrape time (the ring itself stays telemetry-free).
	TraceRingOccupancy = "trace.ring.occupancy"
	TraceRingCapacity  = "trace.ring.capacity"

	// internal/par — worker-pool utilization. BusyNanos is the summed
	// in-worker time of parallel dispatches; WallNanos is the summed
	// wall-clock time of those dispatches weighted by the worker count, so
	// busy/wall is the fleet utilization.
	ParRuns      = "par.runs"
	ParBlocks    = "par.blocks"
	ParBusyNanos = "par.busy_nanos"
	ParWallNanos = "par.weighted_wall_nanos"
)

// ServeStageSeconds names the per-stage job-latency histogram of one
// executor stage ("queue-wait", "resolve", "compile", "factorize", "screen",
// "mc", "manifest", …). The label suffix follows the registry's metric-label
// convention — `base{key=value}` — which the Prometheus exposition writer
// renders as a proper label pair, so every stage is one series of a single
// emvia_serve_stage_seconds family.
func ServeStageSeconds(stage string) string {
	return "serve.stage_seconds{stage=" + stage + "}"
}

// Derived-metric names (computed at snapshot time, never stored).
const (
	MCTrialsPerSecond = "mc.trials_per_second"
	ParUtilization    = "par.worker_utilization"
	// The three disk-lookup rates partition every persistent stress-cache
	// lookup: hit + miss + corrupt = 1. Splitting miss from corrupt matters
	// operationally — a rising corrupt rate means damaged or stale cache
	// files being silently recomputed, not just a cold cache.
	StressDiskHitRate     = "core.stresscache.disk_hit_rate"
	StressDiskMissRate    = "core.stresscache.disk_miss_rate"
	StressDiskCorruptRate = "core.stresscache.disk_corrupt_rate"
)
