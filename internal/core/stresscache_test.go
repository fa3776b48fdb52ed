package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"emvia/internal/cudd"
	"emvia/internal/fem"
	"emvia/internal/phys"
)

func testCache(t *testing.T) *StressCache {
	t.Helper()
	c, err := OpenStressCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testSigma() [][]float64 {
	return [][]float64{{4.1e8, 4.2e8}, {4.3e8, 4.4e8}}
}

func TestStressCacheHitMiss(t *testing.T) {
	c := testCache(t)
	p := cudd.DefaultParams()
	key := c.Key(p, fem.SolveOptions{})
	if _, ok := c.Get(key); ok {
		t.Fatal("empty cache reported a hit")
	}
	if err := c.Put(key, testSigma()); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("cache missed a stored entry")
	}
	if got[1][0] != 4.3e8 {
		t.Errorf("got[1][0] = %g, want 4.3e8", got[1][0])
	}
	// A different geometry must produce a different key (and thus miss).
	p2 := p
	p2.ArrayN++
	if k2 := c.Key(p2, fem.SolveOptions{}); k2 == key {
		t.Error("distinct params hashed to the same key")
	} else if _, ok := c.Get(k2); ok {
		t.Error("unrelated key hit")
	}
}

// TestStressCacheKeySolverSettings checks that solver settings that change
// the converged result participate in the key, with zero values resolved to
// fem.Solve's defaults so "default by omission" and "default explicitly"
// share entries.
func TestStressCacheKeySolverSettings(t *testing.T) {
	c := testCache(t)
	p := cudd.DefaultParams()
	base := c.Key(p, fem.SolveOptions{})
	if got := c.Key(p, fem.SolveOptions{Tol: 1e-8, Precond: "auto"}); got != base {
		t.Error("explicit defaults keyed differently from zero options")
	}
	if got := c.Key(p, fem.SolveOptions{Tol: 1e-4}); got == base {
		t.Error("looser tolerance did not change the key")
	}
	if got := c.Key(p, fem.SolveOptions{Precond: "jacobi"}); got == base {
		t.Error("preconditioner choice did not change the key")
	}
}

func TestStressCacheCorruptEntryIsMiss(t *testing.T) {
	c := testCache(t)
	p := cudd.DefaultParams()
	key := c.Key(p, fem.SolveOptions{})
	if err := c.Put(key, testSigma()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(c.Dir(), key+".json")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncated write (e.g. torn copy from another filesystem).
	if err := os.WriteFile(path, buf[:len(buf)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("truncated entry reported a hit")
	}
	// Recompute-and-rewrite restores the entry.
	if err := c.Put(key, testSigma()); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); !ok {
		t.Fatal("rewritten entry missed")
	}
	// Non-square sigma is also rejected.
	e := stressCacheEntry{Version: stressCacheVersion, Key: key, PeakSigmaT: [][]float64{{1, 2}, {3}}}
	raw, _ := json.Marshal(e)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("ragged sigma reported a hit")
	}
}

func TestStressCacheVersionBumpInvalidates(t *testing.T) {
	c := testCache(t)
	p := cudd.DefaultParams()
	key := c.Key(p, fem.SolveOptions{})
	if err := c.Put(key, testSigma()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(c.Dir(), key+".json")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var e stressCacheEntry
	if err := json.Unmarshal(buf, &e); err != nil {
		t.Fatal(err)
	}
	e.Version = stressCacheVersion + 1 // entry written by a future format
	raw, _ := json.Marshal(e)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("version-mismatched entry reported a hit")
	}
}

func TestStressCacheConcurrentWriters(t *testing.T) {
	c := testCache(t)
	p := cudd.DefaultParams()
	key := c.Key(p, fem.SolveOptions{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := c.Put(key, testSigma()); err != nil {
					t.Error(err)
					return
				}
				if s, ok := c.Get(key); ok && s[0][0] != 4.1e8 {
					t.Errorf("torn read: %v", s[0])
					return
				}
			}
		}()
	}
	wg.Wait()
	got, ok := c.Get(key)
	if !ok || got[1][1] != 4.4e8 {
		t.Fatalf("final entry bad: ok=%v got=%v", ok, got)
	}
	// The atomic renames must not leave temp litter behind.
	ents, err := os.ReadDir(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if strings.HasPrefix(de.Name(), ".tmp-") {
			t.Errorf("leftover temp file %s", de.Name())
		}
	}
}

func TestResolveStressCacheDir(t *testing.T) {
	if got := ResolveStressCacheDir("/x/y"); got != "/x/y" {
		t.Errorf("explicit dir: got %q", got)
	}
	t.Setenv("EMVIA_STRESS_CACHE", "/env/cache")
	if got := ResolveStressCacheDir(""); got != "/env/cache" {
		t.Errorf("env dir: got %q", got)
	}
	t.Setenv("EMVIA_STRESS_CACHE", "")
	if got := ResolveStressCacheDir(""); got == "" {
		t.Error("fallback dir empty")
	}
}

// TestAnalyzerPersistentCache proves StressFor consults the disk cache: a
// pre-seeded entry under the exact key the analyzer derives is returned
// without running any FEA (the seeded values are physically impossible, so a
// real solve could not produce them).
func TestAnalyzerPersistentCache(t *testing.T) {
	dir := t.TempDir()
	a := fastAnalyzer()
	if err := a.EnableStressCache(dir); err != nil {
		t.Fatal(err)
	}

	// First run: cold cache, real FEA, entry written to disk.
	s1, err := a.StressFor(cudd.Plus, a.Base.LayerPair, 2, 2*phys.Micron)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("cache dir has %d entries after first solve, want 1", len(ents))
	}

	// Second analyzer, same cache dir: must read the stored matrix back.
	b := fastAnalyzer()
	if err := b.EnableStressCache(dir); err != nil {
		t.Fatal(err)
	}
	s2, err := b.StressFor(cudd.Plus, b.Base.LayerPair, 2, 2*phys.Micron)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		for j := range s1[i] {
			if s1[i][j] != s2[i][j] {
				t.Fatalf("disk round-trip changed sigma[%d][%d]: %g != %g", i, j, s1[i][j], s2[i][j])
			}
		}
	}

	// Third analyzer with a poisoned entry: StressFor must return the
	// poisoned values, proving the FEA was skipped on a warm cache.
	p := b.Base
	p.Pattern = cudd.Plus
	p.ArrayN = 2
	p.WireWidth = 2 * phys.Micron
	key := b.Disk.Key(p, b.FEA)
	want := [][]float64{{-1, -2}, {-3, -4}}
	if err := b.Disk.Put(key, want); err != nil {
		t.Fatal(err)
	}
	cDir := fastAnalyzer()
	if err := cDir.EnableStressCache(dir); err != nil {
		t.Fatal(err)
	}
	got, err := cDir.StressFor(cudd.Plus, cDir.Base.LayerPair, 2, 2*phys.Micron)
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0] != -1 || got[1][1] != -4 {
		t.Errorf("warm-cache StressFor ran FEA instead of reading disk: %v", got)
	}
}
