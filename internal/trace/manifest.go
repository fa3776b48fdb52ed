package trace

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// manifestSchemaVersion is bumped when the manifest layout changes meaning.
const manifestSchemaVersion = 1

// Manifest is the run-provenance record written alongside every trace or
// metrics artifact: everything needed to reproduce the figure or metric the
// artifact backs — the exact invocation, the resolved configuration, seeds
// and worker counts, the material-constant hash and stress-cache key version
// (so a stale persistent cache is detectable), plus the toolchain and
// machine it ran on.
type Manifest struct {
	SchemaVersion int       `json:"schema_version"`
	CreatedAt     time.Time `json:"created_at"`
	// Command and Args are the exact invocation (os.Args split).
	Command string   `json:"command"`
	Args    []string `json:"args,omitempty"`
	// Config is the fully resolved flag set (defaults included), so the
	// run is reproducible even when flags were left implicit.
	Config map[string]string `json:"config,omitempty"`
	// Seed/Trials/Workers duplicate the headline reproducibility knobs out
	// of Config for toolability; zero values mean "not applicable".
	Seed    int64 `json:"seed,omitempty"`
	Trials  int   `json:"trials,omitempty"`
	Workers int   `json:"workers,omitempty"`
	// Engine records the analysis engine (mc, steady, both): a screened run
	// ("both") prunes the Monte Carlo to the steady mortal subset, so the
	// engine choice is part of result provenance.
	Engine string `json:"engine,omitempty"`
	// Screen summarizes the steady-state screening pre-pass of a steady or
	// both run: what was classified mortal and against which thresholds.
	Screen *ScreenInfo `json:"screen,omitempty"`
	// MaterialHash fingerprints the material table + EM constants
	// (core.MaterialHash); StressCacheKeyVersion is the persistent stress
	// cache's key schema version.
	MaterialHash          string `json:"material_hash,omitempty"`
	StressCacheKeyVersion int    `json:"stress_cache_key_version,omitempty"`

	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	Hostname  string `json:"hostname,omitempty"`

	// Artifacts lists every file of the run this manifest describes (the
	// trace exports, the metrics JSON); a copy of the manifest is written
	// alongside each.
	Artifacts []string `json:"artifacts,omitempty"`
}

// ScreenInfo is the manifest record of one steady-state screening pass.
type ScreenInfo struct {
	Vias           int     `json:"vias"`
	MortalVias     int     `json:"mortal_vias"`
	Segments       int     `json:"segments"`
	MortalSegments int     `json:"mortal_segments"`
	SigmaCritViaPa float64 `json:"sigma_crit_via_pa"`
	SigmaTViaPa    float64 `json:"sigma_t_via_pa"`
}

// NewManifest starts a manifest for the given invocation, filling the
// toolchain and machine fields.
func NewManifest(command string, args []string) *Manifest {
	host, _ := os.Hostname()
	return &Manifest{
		SchemaVersion: manifestSchemaVersion,
		CreatedAt:     time.Now().UTC(),
		Command:       command,
		Args:          args,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		Hostname:      host,
	}
}

// FlagConfig captures a parsed flag set as a name→value map, defaults
// included, for Manifest.Config.
func FlagConfig(fs *flag.FlagSet) map[string]string {
	cfg := make(map[string]string)
	fs.VisitAll(func(f *flag.Flag) { cfg[f.Name] = f.Value.String() })
	return cfg
}

// ManifestPath returns the manifest path for an artifact:
// "<artifact>.manifest.json".
func ManifestPath(artifact string) string { return artifact + ".manifest.json" }

// Write writes the manifest as indented JSON to path.
func (m *Manifest) Write(path string) error {
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("trace: encoding manifest: %w", err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("trace: writing manifest: %w", err)
	}
	return nil
}

// WriteBeside writes one manifest copy alongside every artifact in
// m.Artifacts (skipping "-", the stdout spelling).
func (m *Manifest) WriteBeside() error {
	for _, a := range m.Artifacts {
		if a == "" || a == "-" {
			continue
		}
		if err := m.Write(ManifestPath(a)); err != nil {
			return err
		}
	}
	return nil
}
