package serve

import (
	"encoding/json"
	"fmt"
	"math"

	"emvia/internal/mc"
	"emvia/internal/pdn"
	"emvia/internal/phys"
	"emvia/internal/stat"
	"emvia/internal/trace"
)

// manifestSchemaVersion is bumped when the result-manifest layout changes
// meaning. It is part of the manifest, not of the content hash: the hash
// addresses the *question*, the manifest records the *answer*.
const manifestSchemaVersion = 1

// ResultManifest is the content-addressed record of one completed job. It
// is canonical by construction — no wall-clock timestamps, no hostnames, no
// worker counts, and a deterministic JSON encoding — so two executions of
// the same content hash produce byte-identical manifests. That is the
// dedup contract the determinism suite pins: a cached manifest is
// indistinguishable from a fresh solve.
type ResultManifest struct {
	SchemaVersion int `json:"schema_version"`
	// ContentHash echoes the job's content address.
	ContentHash string `json:"content_hash"`
	// MaterialHash fingerprints the physics (core.MaterialHash).
	MaterialHash string `json:"material_hash"`
	// Engine is the resolved analysis backend (mc, steady, both).
	Engine string `json:"engine"`
	// Spec is the resolved job spec (defaults applied).
	Spec *JobSpec `json:"spec"`
	// Screen summarizes the steady-state classification (engines steady and
	// both).
	Screen *trace.ScreenInfo `json:"screen,omitempty"`
	// Trials, FiniteTrials and the TTF fields describe the Monte-Carlo
	// outcome (engines mc and both). TTFSeconds lists every trial's system
	// TTF in trial order — the byte-identity payload — with non-finite
	// values spelled as strings per the trace JSONL convention.
	Trials       int   `json:"trials,omitempty"`
	FiniteTrials int   `json:"finite_trials,omitempty"`
	TTFSeconds   []any `json:"ttf_seconds,omitempty"`
	// PercentilesYears gives the headline TTF quantiles in years over the
	// finite trials, keyed "p0.3", "p25", "p50", "p75", "p99.7" (JSON maps
	// encode with sorted keys, so the bytes stay canonical).
	PercentilesYears map[string]float64 `json:"percentiles_years,omitempty"`
}

// jsonNumber keeps finite values numeric and spells non-finite ones as
// strings, matching the trace JSONL and monitor /status conventions.
func jsonNumber(v float64) any {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return v
}

// screenInfo digests a grid screen into the manifest form shared with the
// run-provenance manifests.
func screenInfo(s *pdn.GridScreen) *trace.ScreenInfo {
	if s == nil {
		return nil
	}
	return &trace.ScreenInfo{
		Vias:           s.Vias,
		MortalVias:     s.MortalVias,
		Segments:       s.Segments,
		MortalSegments: s.MortalSegments,
		SigmaCritViaPa: s.SigmaCritVia,
		SigmaTViaPa:    s.SigmaTVia,
	}
}

// buildManifest assembles the canonical manifest of one run output.
func buildManifest(hash string, resolved *JobSpec, out *runOutput) (*ResultManifest, error) {
	m := &ResultManifest{
		SchemaVersion: manifestSchemaVersion,
		ContentHash:   hash,
		MaterialHash:  out.materialHash,
		Engine:        resolved.Engine,
		Spec:          resolved,
		Screen:        out.screen,
	}
	if res := out.mcResult; res != nil {
		m.Trials = len(res.TTF)
		m.TTFSeconds = make([]any, len(res.TTF))
		for i, v := range res.TTF {
			m.TTFSeconds[i] = jsonNumber(v)
		}
		finite := res.FiniteTTF()
		m.FiniteTrials = len(finite)
		if len(finite) > 0 {
			ecdf, err := stat.NewECDF(finite)
			if err != nil {
				return nil, err
			}
			m.PercentilesYears = map[string]float64{
				"p0.3":  phys.SecondsToYears(ecdf.Percentile(0.003)),
				"p25":   phys.SecondsToYears(ecdf.Percentile(0.25)),
				"p50":   phys.SecondsToYears(ecdf.Percentile(0.5)),
				"p75":   phys.SecondsToYears(ecdf.Percentile(0.75)),
				"p99.7": phys.SecondsToYears(ecdf.Percentile(0.997)),
			}
		}
	}
	return m, nil
}

// Encode renders the manifest as canonical indented JSON (trailing newline
// included, matching the provenance-manifest convention).
func (m *ResultManifest) Encode() ([]byte, error) {
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("serve: encoding result manifest: %w", err)
	}
	return append(buf, '\n'), nil
}

// runOutput is what one engine execution produces, pre-manifest. The screen
// is carried in its digested manifest form so a merged shard output and a
// fresh single-process run flow through buildManifest identically.
type runOutput struct {
	screen       *trace.ScreenInfo
	mcResult     *mc.Result
	materialHash string
	// backend is the circuit backend the run actually used. It feeds the
	// ledger only, so manifest bytes do not depend on it.
	backend string
}
