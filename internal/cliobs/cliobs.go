// Package cliobs bundles the observability wiring the emgrid/emsweep/
// paperfigs binaries share: the telemetry flags (-metrics, -metrics-json,
// -progress), the structured-trace flags (-trace, -trace-chrome,
// -trace-nosamples), the live HTTP monitor (-http), and the run-provenance
// manifest written alongside every trace or metrics artifact.
package cliobs

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"sync/atomic"

	"emvia/internal/core"
	"emvia/internal/mc"
	"emvia/internal/monitor"
	"emvia/internal/spice"
	"emvia/internal/telemetry"
	"emvia/internal/trace"
)

// Config is the combined observability flag surface.
type Config struct {
	Telemetry telemetry.CLIConfig
	Trace     trace.CLIConfig
	// HTTPAddr serves /status, /debug/vars and /debug/pprof when non-empty.
	HTTPAddr string
	// SolverWorkers bounds the supernodal factorization worker pool;
	// 0 = one worker per CPU, 1 = serial. Results are identical either way.
	SolverWorkers int
	// Engine selects the analysis engine (mc|steady|both); Setup validates
	// it and records the resolved value in the run manifest. Commands
	// resolve their own copy with mc.ParseEngine.
	Engine string
}

// RegisterFlags declares every observability flag on fs.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.BoolVar(&c.Telemetry.Metrics, "metrics", false, "print a telemetry report to stderr on exit")
	fs.StringVar(&c.Telemetry.MetricsJSON, "metrics-json", "", `write a JSON telemetry report to this file on exit ("-" = stdout)`)
	fs.BoolVar(&c.Telemetry.Progress, "progress", false, "print periodic progress lines to stderr during long Monte-Carlo runs")
	c.Trace.RegisterFlags(fs)
	fs.StringVar(&c.HTTPAddr, "http", "", "serve the live monitor (/status, /debug/vars, /debug/pprof) on `addr`")
	fs.IntVar(&c.SolverWorkers, "solver-workers", 0, "worker goroutines of the parallel supernodal factorization (0 = one per CPU, 1 = serial; results are bit-identical)")
	fs.StringVar(&c.Engine, "engine", "mc", "analysis engine: mc (full Monte Carlo), steady (linear-time steady-state screen only), or both (the screen prunes the Monte Carlo to the mortal subset)")
}

// active is the manifest of the current run, readable by RecordFlags until
// the finish function runs.
var active atomic.Pointer[trace.Manifest]

// monitorRingSize is the default last-N-trials window served by /status.
const monitorRingSize = 256

// Setup wires everything the config asks for and returns a finish function
// to run before process exit: it writes the telemetry reports, flushes and
// closes the trace sinks, writes the provenance manifests beside every
// artifact, and stops the monitor. fs is the parsed top-level flag set,
// captured into the manifest (nil skips flag capture); command names the
// binary in the manifest.
func Setup(c Config, command string, fs *flag.FlagSet) (finish func() error, err error) {
	if c.SolverWorkers < 0 {
		return nil, fmt.Errorf("-solver-workers: must be ≥ 0, got %d", c.SolverWorkers)
	}
	spice.SetSolverWorkers(c.SolverWorkers)
	engine, err := mc.ParseEngine(c.Engine)
	if err != nil {
		return nil, fmt.Errorf("-engine: %w", err)
	}

	m := trace.NewManifest(command, os.Args[1:])
	if fs != nil {
		m.Config = trace.FlagConfig(fs)
	}
	m.MaterialHash = core.MaterialHash()
	m.StressCacheKeyVersion = core.StressCacheKeyVersion()
	m.Engine = engine
	if p := c.Telemetry.MetricsJSON; p != "" && p != "-" {
		m.Artifacts = append(m.Artifacts, p)
	}
	if c.HTTPAddr != "" && c.Trace.RingSize == 0 {
		c.Trace.RingSize = monitorRingSize
	}

	ring, traceFinish, err := trace.CLISetup(c.Trace, m)
	if err != nil {
		return nil, err
	}
	telemetryFinish := telemetry.CLISetup(c.Telemetry)

	var mon *monitor.Server
	if c.HTTPAddr != "" {
		mon, err = monitor.Start(c.HTTPAddr, monitor.Options{Ring: ring})
		if err != nil {
			traceFinish() //nolint:errcheck // already failing
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "%s: monitor listening on http://%s\n", command, mon.Addr())
	}

	active.Store(m)
	return func() error {
		active.Store(nil)
		// Telemetry reports first (the -metrics-json artifact must exist
		// before its manifest is written beside it), then the trace finish,
		// which flushes sinks and writes every manifest copy.
		err := telemetryFinish()
		if terr := traceFinish(); err == nil {
			err = terr
		}
		if cerr := mon.Close(); err == nil {
			err = cerr
		}
		return err
	}, nil
}

// RecordFlags merges a subcommand's parsed flag set into the active run
// manifest (emgrid parses per-subcommand flags after Setup), lifting the
// reproducibility knobs — trials/seed/j — into their dedicated manifest
// fields. No-op when no run is active.
func RecordFlags(fs *flag.FlagSet) {
	m := active.Load()
	if m == nil || fs == nil {
		return
	}
	if m.Config == nil {
		m.Config = make(map[string]string)
	}
	for k, v := range trace.FlagConfig(fs) {
		m.Config[k] = v
	}
	if v, err := strconv.Atoi(m.Config["trials"]); err == nil {
		m.Trials = v
	}
	if v, err := strconv.ParseInt(m.Config["seed"], 10, 64); err == nil {
		m.Seed = v
	}
	if v, err := strconv.Atoi(m.Config["j"]); err == nil {
		m.Workers = v
	}
	if v := m.Config["engine"]; v != "" {
		if engine, err := mc.ParseEngine(v); err == nil {
			m.Engine = engine
		}
	}
}

// RecordArtifact registers a result file produced after Setup (e.g. the
// -engine=steady classification JSON) with the active run manifest, so a
// provenance copy is written beside it at finish. No-op when no run is
// active or the path is stdout.
func RecordArtifact(path string) {
	m := active.Load()
	if m == nil || path == "" || path == "-" {
		return
	}
	m.Artifacts = append(m.Artifacts, path)
}

// RecordScreen attaches a steady-state screening summary to the active run
// manifest, so every artifact of a -engine=steady/both run carries the
// classification the results were pruned against. No-op when no run is
// active.
func RecordScreen(info trace.ScreenInfo) {
	m := active.Load()
	if m == nil {
		return
	}
	m.Screen = &info
}
