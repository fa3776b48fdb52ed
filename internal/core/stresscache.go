package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"unsafe"

	"emvia/internal/cudd"
	"emvia/internal/fem"
	"emvia/internal/mat"
	"emvia/internal/telemetry"
)

// StressCache is the persistent on-disk layer under the Analyzer's in-memory
// stress map: one JSON file per FEA characterization, addressed by a content
// hash of everything the result depends on — the full structure parameters
// (geometry, temperatures, mesh steps), the material table and the solver
// settings that affect the converged solution. Repeated CLI invocations with
// the same technology therefore skip the FEA entirely.
//
// Writes go through a temp file in the cache directory followed by an atomic
// rename, so concurrent writers (or a crash mid-write) can never leave a
// partially written entry: readers see either the old file, the new file or
// no file. Unreadable, truncated or version-mismatched entries are treated
// as misses and rewritten after recompute.
type StressCache struct {
	dir string
}

// stressCacheVersion is bumped whenever the FEA discretization, the key
// schema or the entry format changes meaning; old entries then miss and are
// recomputed. Version 2 switched the key payload from JSON to the fixed
// binary layout below.
const stressCacheVersion = 2

// stressKeyParamFields pins the number of cudd.Params fields the binary key
// encoding covers. appendParams must encode every field, so adding a field
// to cudd.Params requires extending appendParams, bumping stressCacheVersion
// and updating this count — a reflection test enforces all three.
const stressKeyParamFields = 21

// stressCacheEntry is the on-disk format (cf. viaarray/serialize.go). Put
// writes it with encoding/json; Get decodes it with a strict hand-rolled
// scanner (see decodeStressEntry) that accepts a subset of what
// encoding/json would.
type stressCacheEntry struct {
	Version    int         `json:"version"`
	Key        string      `json:"key"`
	PeakSigmaT [][]float64 `json:"peak_sigma_t_pa"`
}

// ResolveStressCacheDir picks the cache directory: an explicit dir wins,
// then the EMVIA_STRESS_CACHE environment variable, then
// os.UserCacheDir()/emvia/stress.
func ResolveStressCacheDir(dir string) string {
	if dir != "" {
		return dir
	}
	if env := os.Getenv("EMVIA_STRESS_CACHE"); env != "" {
		return env
	}
	base, err := os.UserCacheDir()
	if err != nil {
		return ".emvia-stress-cache"
	}
	return filepath.Join(base, "emvia", "stress")
}

// OpenStressCache opens a cache rooted at dir; empty dir resolves via
// ResolveStressCacheDir. The directory itself is created lazily on first
// Put, so opening (which happens on every CLI start, and once per iteration
// in the warm-cache benchmark) touches the filesystem not at all.
func OpenStressCache(dir string) (*StressCache, error) {
	return &StressCache{dir: ResolveStressCacheDir(dir)}, nil
}

// Dir returns the cache directory.
func (c *StressCache) Dir() string { return c.dir }

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// appendParams lays out every cudd.Params field in declaration order. The
// layout is fixed-width, so no separators are needed for injectivity (the
// one variable-length key component, the preconditioner name, is
// length-prefixed by the caller).
func appendParams(b []byte, p *cudd.Params) []byte {
	b = appendU64(b, uint64(p.Pattern))
	b = appendU64(b, uint64(p.LayerPair.Lower))
	b = appendU64(b, uint64(p.LayerPair.Upper))
	b = appendU64(b, uint64(p.ArrayN))
	b = appendF64(b, p.WireWidth)
	b = appendF64(b, p.ViaArea)
	b = appendF64(b, p.ViaSpacing)
	b = appendF64(b, p.AnnealT)
	b = appendF64(b, p.OperatingT)
	b = appendF64(b, p.MetalThicknessIntermediate)
	b = appendF64(b, p.MetalThicknessTop)
	b = appendF64(b, p.ViaHeight)
	b = appendF64(b, p.CapThickness)
	b = appendF64(b, p.LinerThickness)
	b = appendF64(b, p.Margin)
	b = appendF64(b, p.SubstrateThickness)
	b = appendF64(b, p.UnderILD)
	b = appendF64(b, p.OverILD)
	b = appendF64(b, p.StepArray)
	b = appendF64(b, p.StepOutside)
	b = appendF64(b, p.StepZMetal)
	b = appendF64(b, p.StepZBulk)
	return b
}

// Key derives the content-addressed cache key for one characterization: a
// SHA-256 over a fixed binary payload covering the schema version, every
// structure parameter, the solver settings that change the converged result
// (tolerance, iteration limit, preconditioner) and the material table. The payload fits a stack buffer, so deriving a key
// costs a single allocation (the hex string).
func (c *StressCache) Key(p cudd.Params, opt fem.SolveOptions) string {
	tol := opt.Tol
	if tol == 0 {
		tol = 1e-8 // fem.Solve's default
	}
	precond := opt.Precond
	if precond == "" {
		precond = "auto"
	}
	var arr [512]byte
	b := append(arr[:0], "emvia-stress"...)
	b = appendU64(b, stressCacheVersion)
	b = appendParams(b, &p)
	b = appendF64(b, tol)
	b = appendU64(b, uint64(opt.MaxIter))
	b = appendU64(b, uint64(len(precond)))
	b = append(b, precond...)
	// The material table is a map; scanning the full (one-byte) ID space in
	// order makes the encoding deterministic without sorting allocations.
	for id := 0; id < 256; id++ {
		e, ok := mat.Table1[mat.ID(id)]
		if !ok {
			continue
		}
		b = append(b, byte(id))
		b = appendF64(b, e.E)
		b = appendF64(b, e.Nu)
		b = appendF64(b, e.CTE)
	}
	sum := sha256.Sum256(b)
	var dst [2 * sha256.Size]byte
	hex.Encode(dst[:], sum[:])
	return string(dst[:])
}

func (c *StressCache) path(key string) string {
	return c.dir + string(os.PathSeparator) + key + ".json"
}

// Get loads the entry for key. Any read, decode, version or key mismatch is
// reported as a miss — the caller recomputes and rewrites.
func (c *StressCache) Get(key string) ([][]float64, bool) {
	sigma, outcome := c.get(key)
	if r := telemetry.Default(); r != nil {
		switch outcome {
		case cacheHit:
			r.Counter(telemetry.StressDiskHits).Inc()
		case cacheMiss:
			r.Counter(telemetry.StressDiskMisses).Inc()
		case cacheCorrupt:
			r.Counter(telemetry.StressDiskBad).Inc()
		}
	}
	return sigma, outcome == cacheHit
}

// cacheOutcome distinguishes a plain miss (the entry does not exist) from a
// corrupt entry (present but unreadable, truncated, version-skewed or
// shape-invalid). Both behave as misses toward the caller; telemetry counts
// them separately because corruption indicates a real problem — a crashed
// writer bypassing the atomic rename, manual edits, a skewed build — while
// misses are just cold caches.
type cacheOutcome int

const (
	cacheHit cacheOutcome = iota
	cacheMiss
	cacheCorrupt
)

// stressReadBuf recycles the file-content scratch across Gets (and across
// StressCache instances — the bytes never outlive one get call, which copies
// the decoded floats out before returning).
var stressReadBuf = sync.Pool{New: func() any { b := make([]byte, 0, 16<<10); return &b }}

func (c *StressCache) get(key string) ([][]float64, cacheOutcome) {
	bp := stressReadBuf.Get().(*[]byte)
	defer func() { stressReadBuf.Put(bp) }()
	buf, err := readEntryFile(c.path(key), *bp)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, cacheMiss
		}
		return nil, cacheCorrupt
	}
	*bp = buf
	sigma, ok := decodeStressEntry(buf, key)
	if !ok {
		return nil, cacheCorrupt
	}
	return sigma, cacheHit
}

// Put stores sigma under key via write-to-temp + atomic rename, creating the
// cache directory on first use (deferred out of OpenStressCache so opening a
// cache stays read-only).
func (c *StressCache) Put(key string, sigma [][]float64) error {
	buf, err := json.Marshal(stressCacheEntry{
		Version:    stressCacheVersion,
		Key:        key,
		PeakSigmaT: sigma,
	})
	if err != nil {
		return fmt.Errorf("core: stress cache encode: %w", err)
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return fmt.Errorf("core: stress cache dir: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, ".tmp-"+key+"-*")
	if err != nil {
		return fmt.Errorf("core: stress cache write: %w", err)
	}
	_, werr := tmp.Write(buf)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr == nil {
			werr = cerr
		}
		return fmt.Errorf("core: stress cache write: %w", werr)
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("core: stress cache rename: %w", err)
	}
	return nil
}

// decodeStressEntry is a strict, allocation-light decoder for the on-disk
// entry format. It accepts exactly the shape Put writes — the three fields
// in order, arbitrary JSON whitespace between tokens — and is deliberately
// no more permissive than encoding/json: numbers must match the JSON
// grammar (no NaN/Infinity, no hex, no leading '+' or superfluous leading
// zeros, no out-of-range magnitudes), strings may not contain raw control
// bytes, and trailing garbage is rejected. Inputs json.Unmarshal would
// accept but Put never writes (reordered, duplicated or unknown fields,
// escaped key strings) are rejected too; a stricter reject only turns a
// hand-edited entry into a recompute. On success the matrix values are
// bit-identical to what json.Unmarshal would produce, since both feed the
// same literals to strconv.ParseFloat.
//
// The matrix comes back as one backing slice plus a row-header slice, so a
// warm Get performs two matrix allocations regardless of size.
func decodeStressEntry(buf []byte, key string) ([][]float64, bool) {
	d := stressScanner{b: buf}
	if !d.expect('{') || !d.field("version") {
		return nil, false
	}
	if v, ok := d.intLit(); !ok || v != stressCacheVersion {
		return nil, false
	}
	if !d.expect(',') || !d.field("key") || !d.stringEquals(key) {
		return nil, false
	}
	if !d.expect(',') || !d.field("peak_sigma_t_pa") {
		return nil, false
	}
	sigma, ok := d.matrix()
	if !ok || !d.expect('}') {
		return nil, false
	}
	d.ws()
	if d.i != len(d.b) {
		return nil, false
	}
	return sigma, true
}

// stressScanner walks the entry bytes. All methods return false on any
// grammar violation, leaving the caller to classify the entry corrupt.
type stressScanner struct {
	b []byte
	i int
}

func (d *stressScanner) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// expect consumes optional whitespace followed by exactly c.
func (d *stressScanner) expect(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// field consumes `"name":` (with optional surrounding whitespace).
func (d *stressScanner) field(name string) bool {
	if !d.expect('"') {
		return false
	}
	if len(d.b)-d.i < len(name)+1 || string(d.b[d.i:d.i+len(name)]) != name || d.b[d.i+len(name)] != '"' {
		return false
	}
	d.i += len(name) + 1
	return d.expect(':')
}

// stringEquals consumes a JSON string and reports whether it equals want.
// Escape sequences are rejected: cache keys are plain hex, and Put never
// escapes them.
func (d *stressScanner) stringEquals(want string) bool {
	if !d.expect('"') {
		return false
	}
	start := d.i
	for d.i < len(d.b) {
		c := d.b[d.i]
		if c == '"' {
			eq := string(d.b[start:d.i]) == want
			d.i++
			return eq
		}
		if c == '\\' || c < 0x20 {
			return false
		}
		d.i++
	}
	return false
}

// intLit consumes a JSON integer (no fraction or exponent, matching what
// json.Unmarshal accepts for an int field).
func (d *stressScanner) intLit() (int, bool) {
	d.ws()
	b, i := d.b, d.i
	neg := false
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	if i >= len(b) || b[i] < '0' || b[i] > '9' {
		return 0, false
	}
	v := 0
	if b[i] == '0' {
		i++
	} else {
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			if v > (1<<31)/10 {
				return 0, false
			}
			v = v*10 + int(b[i]-'0')
			i++
		}
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, false
	}
	d.i = i
	if neg {
		v = -v
	}
	return v, true
}

// float consumes one JSON number. The grammar is validated byte-by-byte
// first — strconv.ParseFloat alone would also take Go-isms like "0x1p4",
// "+1" or "inf" that JSON forbids — and ParseFloat then only converts.
// A range error (|x| overflowing float64) is rejected like encoding/json
// rejects it.
func (d *stressScanner) float() (float64, bool) {
	d.ws()
	b, i := d.b, d.i
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i >= len(b) || b[i] < '0' || b[i] > '9' {
		return 0, false
	}
	if b[i] == '0' {
		i++
	} else {
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return 0, false
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return 0, false
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	d.i = i
	// The literal was just grammar-checked and ParseFloat does not retain
	// its argument, so an unsafe view of the bytes avoids a per-number
	// string copy.
	v, err := strconv.ParseFloat(unsafe.String(&b[start], i-start), 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// row consumes `[x, y, ...]`, appending onto dst.
func (d *stressScanner) row(dst []float64) ([]float64, bool) {
	if !d.expect('[') {
		return nil, false
	}
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == ']' {
		d.i++
		return dst, true
	}
	for {
		v, ok := d.float()
		if !ok {
			return nil, false
		}
		dst = append(dst, v)
		d.ws()
		if d.i >= len(d.b) {
			return nil, false
		}
		switch d.b[d.i] {
		case ',':
			d.i++
		case ']':
			d.i++
			return dst, true
		default:
			return nil, false
		}
	}
}

// matrix consumes the stress matrix, enforcing the square-shape invariant
// while parsing: the first row fixes n, every later row must supply exactly
// n values into a preallocated n×n backing, and exactly n rows must follow.
func (d *stressScanner) matrix() ([][]float64, bool) {
	if !d.expect('[') {
		return nil, false
	}
	var first [32]float64
	row0, ok := d.row(first[:0])
	if !ok || len(row0) == 0 {
		return nil, false
	}
	n := len(row0)
	backing := make([]float64, n*n)
	rows := make([][]float64, n)
	copy(backing, row0)
	rows[0] = backing[:n:n]
	for r := 1; ; r++ {
		d.ws()
		if d.i < len(d.b) && d.b[d.i] == ']' {
			d.i++
			return rows, r == n
		}
		if !d.expect(',') || r >= n {
			return nil, false
		}
		dst := backing[r*n : r*n : (r+1)*n]
		got, ok := d.row(dst)
		if !ok || len(got) != n {
			return nil, false
		}
		rows[r] = got
	}
}
