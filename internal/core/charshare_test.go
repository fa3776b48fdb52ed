package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"testing"

	"emvia/internal/cudd"
	"emvia/internal/telemetry"
)

// table2CharPin is the SHA-256 of the twelve via-array characterizations of
// `paperfigs -fig t2 -fast` (4×4 and 8×8, Plus/T/L, weakest link and R = ∞,
// 500 trials, base seed 2017), as hashed by hashChar. It was recorded when
// every criterion still ran its own Monte Carlo, so it pins the shared run
// and its derived views to the numbers of separate runs.
const table2CharPin = "684d952fd9f84ddbc898d595929591bf275de3dd0bf852d790955650a1370f75"

// Table 2 characterization inputs at paperfigs' defaults.
const (
	t2Seed   = 2017
	t2Trials = 500
	t2RefJ   = 1e10
)

// withTelemetry installs a fresh default registry for the test.
func withTelemetry(t *testing.T) *telemetry.Registry {
	t.Helper()
	prev := telemetry.Default()
	reg := telemetry.New()
	telemetry.SetDefault(reg)
	t.Cleanup(func() { telemetry.SetDefault(prev) })
	return reg
}

// freshWithStress returns a new fast analyzer that already holds a's
// in-memory FEA results, so its characterizations skip the FEA but share
// nothing else with a.
func freshWithStress(a *Analyzer) *Analyzer {
	b := fastAnalyzer()
	a.mu.Lock()
	for k, v := range a.cache {
		b.cache[k] = v
	}
	a.mu.Unlock()
	return b
}

// hashChar feeds every number of a characterization that reaches a paper
// figure into h: the fitted model, the criterion, the samples and the
// per-trial system TTFs.
func hashChar(h interface{ Write([]byte) (int, error) }, c *ViaArrayCharacterization) {
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	put(c.Model.Dist.Mu)
	put(c.Model.Dist.Sigma)
	put(c.Model.RefCurrent)
	put(float64(c.Model.FailK))
	put(float64(c.Result.Config.FailK))
	put(float64(len(c.Result.Samples)))
	for _, v := range c.Result.Samples {
		put(v)
	}
	put(float64(len(c.Result.MC.TTF)))
	for _, v := range c.Result.MC.TTF {
		put(v)
	}
}

// sameChar fails the test unless got and want agree bit for bit on
// everything hashChar covers.
func sameChar(t *testing.T, what string, got, want *ViaArrayCharacterization) {
	t.Helper()
	hg, hw := sha256.New(), sha256.New()
	hashChar(hg, got)
	hashChar(hw, want)
	if string(hg.Sum(nil)) != string(hw.Sum(nil)) {
		t.Errorf("%s: characterization differs from a separate run (mu %v/%v sigma %v/%v failK %d/%d samples %d/%d)",
			what, got.Model.Dist.Mu, want.Model.Dist.Mu, got.Model.Dist.Sigma, want.Model.Dist.Sigma,
			got.Result.Config.FailK, want.Result.Config.FailK, len(got.Result.Samples), len(want.Result.Samples))
	}
}

// TestCharacterizeCriteriaShareRun checks that one analyzer runs a single
// via-array Monte Carlo per pattern and size for every failure criterion,
// and that each criterion's characterization is bit for bit the one a
// separate run under that criterion produces.
func TestCharacterizeCriteriaShareRun(t *testing.T) {
	reg := withTelemetry(t)
	misses := reg.Counter(telemetry.CharMisses)
	a := fastAnalyzer()
	crits := []ArrayCriterion{ArrayWeakestLink(), ArrayResistance2x(), ArrayOpenCircuit()}
	char := func(an *Analyzer, pat int, n int, c ArrayCriterion) *ViaArrayCharacterization {
		t.Helper()
		got, err := an.CharacterizeViaArray(cudd.Patterns()[pat], n, an.Base.WireWidth, t2RefJ, c, t2Trials, t2Seed+int64(10*n+pat))
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	t.Run("orders", func(t *testing.T) {
		for _, n := range []int{4, 8} {
			for pat, p := range cudd.Patterns() {
				before := misses.Value()
				first := make([]*ViaArrayCharacterization, len(crits))
				for i, c := range crits {
					first[i] = char(a, pat, n, c)
				}
				for i := len(crits) - 1; i >= 0; i-- {
					sameChar(t, fmt.Sprintf("%dx%d %v %v repeated", n, n, p, crits[i]), char(a, pat, n, crits[i]), first[i])
				}
				if runs := misses.Value() - before; runs != 1 {
					t.Errorf("%dx%d %v: %d Monte-Carlo runs for %d criteria, want 1", n, n, p, runs, len(crits))
				}
				for i, c := range crits {
					sameChar(t, fmt.Sprintf("%dx%d %v %v", n, n, p, c), first[i], char(freshWithStress(a), pat, n, c))
				}
			}
		}
	})

	t.Run("table2 pin", func(t *testing.T) {
		h := sha256.New()
		for _, n := range []int{4, 8} {
			for pat := range cudd.Patterns() {
				for _, c := range []ArrayCriterion{ArrayWeakestLink(), ArrayOpenCircuit()} {
					hashChar(h, char(a, pat, n, c))
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != table2CharPin {
			t.Errorf("table2 characterizations hash to %s, want %s", got, table2CharPin)
		}
	})

	// Concurrent first requests may each run the Monte Carlo (the runs are
	// identical, the last store wins); what must hold, also under the race
	// detector, is that every criterion still gets its own bits.
	t.Run("concurrent criteria", func(t *testing.T) {
		b := freshWithStress(a)
		concurrent := []ArrayCriterion{ArrayOpenCircuit(), ArrayWeakestLink()}
		got := make([]*ViaArrayCharacterization, len(concurrent))
		var wg sync.WaitGroup
		for i, c := range concurrent {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r, err := b.CharacterizeViaArray(cudd.Plus, 8, b.Base.WireWidth, t2RefJ, c, t2Trials, t2Seed+80)
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = r
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for i, c := range concurrent {
			sameChar(t, fmt.Sprintf("concurrent %v", c), got[i], char(freshWithStress(a), 0, 8, c))
		}
	})
}

// TestOptimizeArrayUsesStressCache checks that OptimizeArray reads and
// writes the analyzer's persistent stress cache: a second optimization on a
// fresh analyzer over the same cache directory runs no FEA and makes the
// same choices.
func TestOptimizeArrayUsesStressCache(t *testing.T) {
	dir := t.TempDir()
	spec := OptimizeArraySpec{Pattern: cudd.TShape, Candidates: []int{2, 4}, Trials: 100, Seed: 9}
	optimize := func() ([]ArrayChoice, int, *telemetry.Registry) {
		reg := withTelemetry(t)
		a := fastAnalyzer()
		if err := a.EnableStressCache(dir); err != nil {
			t.Fatal(err)
		}
		choices, best, err := a.OptimizeArray(spec)
		if err != nil {
			t.Fatal(err)
		}
		return choices, best, reg
	}
	cold, coldBest, _ := optimize()
	warm, warmBest, reg := optimize()
	if hits := reg.Counter(telemetry.StressDiskHits).Value(); hits == 0 {
		t.Error("second optimization never read the persistent stress cache")
	}
	if solves := reg.Counter(telemetry.FEMSolves).Value(); solves != 0 {
		t.Errorf("second optimization ran %d FEA solves on a warm cache, want 0", solves)
	}
	if warmBest != coldBest || len(warm) != len(cold) {
		t.Fatalf("warm optimization chose %d of %d, cold %d of %d", warmBest, len(warm), coldBest, len(cold))
	}
	for i := range cold {
		if warm[i] != cold[i] {
			t.Errorf("choice %d: warm %+v, cold %+v", i, warm[i], cold[i])
		}
	}
}
