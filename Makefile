GO ?= go

.PHONY: build test check lint bench bench-snapshot

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the CI gate: static analysis plus the race detector over every
# package with parallel execution — the Monte-Carlo loops sharing solver
# state, the supernodal factor's worker pool, the stress caches and the
# service — and over the FEA packages, whose serial solves the analyzers
# and the service run from concurrent goroutines.
check:
	$(GO) vet ./...
	$(GO) test -race ./internal/mc ./internal/pdn ./internal/par ./internal/fem \
	    ./internal/solver ./internal/sparse ./internal/core ./internal/spice \
	    ./internal/telemetry ./internal/trace ./internal/monitor ./internal/cliobs \
	    ./internal/steady ./internal/serve

# lint runs staticcheck if it is on PATH (CI installs a pinned version;
# locally it is optional) on top of go vet.
lint:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; fi

# bench runs the paper-figure benchmarks with the fixed snapshot protocol
# (see scripts/bench_snapshot.sh and BENCH_1.json / BENCH_2.json). The large
# GridSolve tiers (nx200/nx400, ~20–80 ms/op) only run via bench-snapshot,
# which measures them at a reduced -benchtime.
bench:
	$(GO) test -run '^$$' \
	    -bench 'BenchmarkFig10GridCDF|BenchmarkTable2GridTTF|BenchmarkSparseCholeskyFactor|BenchmarkViaArrayCharacterize|BenchmarkFig1StressProfile|BenchmarkFig6Patterns|BenchmarkFig7ArraySize|BenchmarkFEASolve|BenchmarkStressCacheWarm' \
	    -benchmem -benchtime=100x -count=1 .
	$(GO) test -run '^$$' \
	    -bench 'BenchmarkGridSolve/^nx(10|20|40|80)$$' \
	    -benchmem -benchtime=100x -count=1 .

bench-snapshot:
	sh scripts/bench_snapshot.sh BENCH_snapshot.json
