package cudd

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"emvia/internal/fem"
)

// pinnedFEAHash is the SHA-256 of the 4×4 Plus/T/L characterizations at
// table2's -fast mesh: for each pattern, the CG iteration count, every
// displacement and every per-via peak σ_T, as IEEE-754 bits. It pins the FEA
// numerics bit for bit, so a change to the assembly order, the sparse
// kernels, the IC(0) factor or the CG reductions shows up here before it
// reaches golden figures or stale stress-cache entries.
const pinnedFEAHash = "749ae67011c3369f0652ab32101d2c0ef40ed4328329b06d2c0061f75c7d2fd2"

// TestFEABitPin recomputes the pinned characterizations and compares their
// hash with pinnedFEAHash.
func TestFEABitPin(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, pat := range Patterns() {
		res, err := Characterize(testParams(4, pat), fem.SolveOptions{})
		if err != nil {
			t.Fatalf("%v: %v", pat, err)
		}
		put(uint64(res.FEM.Stats.Iterations))
		put(uint64(len(res.FEM.U)))
		for _, u := range res.FEM.U {
			put(math.Float64bits(u))
		}
		for _, v := range res.PeakFlat() {
			put(math.Float64bits(v))
		}
		t.Logf("%v: %d dofs, %d CG iterations, peak σ_T %.6g MPa", pat, len(res.FEM.U), res.FEM.Stats.Iterations, res.MaxPeak()/1e6)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedFEAHash {
		t.Errorf("FEA hash %s, pinned %s: the FEA numerics are no longer bit-identical", got, pinnedFEAHash)
	}
}
