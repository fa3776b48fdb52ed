package solver

import (
	"slices"

	"emvia/internal/sparse"
)

// Nested-dissection fill-reducing ordering.
//
// AMD (amd.go) is excellent for the small and mid-size networks the dense/
// sparse crossover leaves to the sparse path, but on large 2D grid meshes its
// greedy local decisions accumulate global fill: factor nnz grows like
// O(n^1.5·polylog) in practice versus the O(n·log n) a balanced dissection
// guarantees for planar graphs. NDOrder recursively bisects the graph with a
// BFS level-set separator and falls back to AMD on small leaf subgraphs,
// where the greedy ordering beats a blind dissection tail. The construction
// is fully deterministic: all tie-breaks are by smallest vertex id, and the
// recursion/concatenation order is fixed.
//
// A second effect matters as much as the fill count: dissection separators
// are eliminated last, so the elimination tree becomes wide and shallow with
// independent siblings — exactly the task graph the parallel supernodal
// factorization (supernodal.go) schedules across workers.

// ndLeafSize is the subgraph size at and below which NDOrder dissolves into
// AMD instead of dissecting further.
const ndLeafSize = 96

// NDMinNodes is the dimension at and above which AutoOrder switches from AMD
// to nested dissection. Below it AMD's fill is competitive and its ordering
// cost is negligible.
const NDMinNodes = 4096

// AutoOrder picks the fill-reducing ordering for a symmetric-pattern matrix:
// AMD for small systems, nested dissection at NDMinNodes and above.
func AutoOrder(a *sparse.CSR) []int {
	n, c := a.Dims()
	if n != c || n < NDMinNodes {
		return AMDOrder(a)
	}
	return NDOrder(a)
}

// NDOrder computes a deterministic nested-dissection ordering of the
// symmetric-pattern matrix a: perm[k] = original index of the k-th pivot.
// Non-square matrices get the natural order (the factorization will reject
// them anyway).
func NDOrder(a *sparse.CSR) []int {
	n, c := a.Dims()
	perm := make([]int, n)
	if n != c {
		for i := range perm {
			perm[i] = i
		}
		return perm
	}
	nd := &ndState{
		a:     a,
		level: make([]int, n),
		queue: make([]int, 0, n),
		mark:  make([]int, n), // 0 = outside the current subgraph
		loc:   make([]int, n),
		out:   perm[:0],
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	nd.dissect(all)
	if len(nd.out) != n {
		// Defensive: a bookkeeping bug here would silently produce a wrong
		// factorization; fail loudly instead.
		panic("solver: NDOrder emitted a partial ordering")
	}
	return perm
}

// ndState carries the shared scratch of one NDOrder run. Subgraphs are
// represented as sorted vertex-id slices; mark stamps distinguish "in the
// current subgraph" (stamp == epoch) from everything else, so neighbor scans
// never leave the subgraph.
type ndState struct {
	a     *sparse.CSR
	level []int
	queue []int
	mark  []int
	epoch int
	loc   []int // vertex -> local index within the current subgraph
	out   []int // ordering under construction (appended to)
}

// dissect orders the subgraph induced by verts (sorted ascending) and
// appends it to nd.out.
func (nd *ndState) dissect(verts []int) {
	if len(verts) == 0 {
		return
	}
	if len(verts) <= ndLeafSize {
		nd.orderLeaf(verts)
		return
	}
	nd.epoch++
	for _, v := range verts {
		nd.mark[v] = nd.epoch
	}
	// BFS from the smallest vertex id. If the subgraph is disconnected the
	// sweep stops early; the reached component is dissected on its own and
	// the remainder recurses.
	comp := nd.bfs(verts[0])
	if len(comp) < len(verts) {
		compSorted := append([]int(nil), comp...)
		sortInts(compSorted)
		rest := make([]int, 0, len(verts)-len(comp))
		nd.epoch++ // invalidate stamps; re-stamp the component
		for _, v := range compSorted {
			nd.mark[v] = nd.epoch
		}
		for _, v := range verts {
			if nd.mark[v] != nd.epoch {
				rest = append(rest, v)
			}
		}
		nd.dissect(compSorted)
		nd.dissect(rest)
		return
	}
	// Pseudo-peripheral start: re-run BFS from a smallest-id vertex of the
	// deepest level to stretch the level structure, then cut it in half.
	far := nd.farthest(comp)
	comp = nd.bfs(far)
	depth := nd.level[comp[len(comp)-1]]
	if depth < 2 {
		// Diameter too small to cut (near-clique); AMD handles it better
		// than a degenerate separator.
		nd.orderLeaf(verts)
		return
	}
	// Pick the separator level: the BFS level whose removal best balances
	// the two sides. Levels are contiguous in comp (BFS order).
	sep := nd.splitLevel(comp, depth)
	var partA, partB, sepV []int
	for _, v := range comp {
		switch l := nd.level[v]; {
		case l < sep:
			partA = append(partA, v)
		case l > sep:
			partB = append(partB, v)
		default:
			sepV = append(sepV, v)
		}
	}
	sortInts(partA)
	sortInts(partB)
	sortInts(sepV)
	nd.dissect(partA)
	nd.dissect(partB)
	// Separator vertices are eliminated last, in ascending id order.
	nd.out = append(nd.out, sepV...)
}

// bfs runs a breadth-first sweep from root over vertices stamped with the
// current epoch, filling nd.level, and returns the visit order. Vertices are
// expanded in queue order and neighbors appended in CSR column order, so the
// result is deterministic.
func (nd *ndState) bfs(root int) []int {
	nd.queue = nd.queue[:0]
	nd.queue = append(nd.queue, root)
	nd.level[root] = 0
	nd.mark[root] = -nd.epoch // visited stamp
	for head := 0; head < len(nd.queue); head++ {
		v := nd.queue[head]
		cols, _ := nd.a.Row(v)
		for _, u := range cols {
			if int(u) != v && nd.mark[u] == nd.epoch {
				nd.mark[u] = -nd.epoch
				nd.level[u] = nd.level[v] + 1
				nd.queue = append(nd.queue, int(u))
			}
		}
	}
	// Restore in-subgraph stamps for the visited set so a second bfs can run
	// over the same epoch.
	for _, v := range nd.queue {
		nd.mark[v] = nd.epoch
	}
	return nd.queue
}

// farthest returns the smallest-id vertex of the deepest BFS level of the
// last sweep.
func (nd *ndState) farthest(comp []int) int {
	deep := nd.level[comp[len(comp)-1]]
	best := -1
	for _, v := range comp {
		if nd.level[v] == deep && (best < 0 || v < best) {
			best = v
		}
	}
	return best
}

// splitLevel picks the separator level 1..depth-1: the thinnest level whose
// removal still leaves both sides with at least a quarter of the component
// (fill grows with separator size much faster than with mild imbalance). When
// no level is that balanced it falls back to the best-balanced one.
func (nd *ndState) splitLevel(comp []int, depth int) int {
	counts := make([]int, depth+1)
	for _, v := range comp {
		counts[nd.level[v]]++
	}
	total := len(comp)
	bestThin, thinSize := -1, total+1
	bestBal, balScore := 1, total+1
	below := counts[0]
	for l := 1; l < depth; l++ {
		above := total - below - counts[l]
		if min(below, above) >= total/4 && counts[l] < thinSize {
			bestThin, thinSize = l, counts[l]
		}
		score := below - above
		if score < 0 {
			score = -score
		}
		if score < balScore {
			bestBal, balScore = l, score
		}
		below += counts[l]
	}
	if bestThin >= 0 {
		return bestThin
	}
	return bestBal
}

// orderLeaf appends an AMD ordering of the subgraph induced by verts.
func (nd *ndState) orderLeaf(verts []int) {
	if len(verts) == 1 {
		nd.out = append(nd.out, verts[0])
		return
	}
	nd.epoch++
	for li, v := range verts {
		nd.mark[v] = nd.epoch
		nd.loc[v] = li
	}
	// Build the induced-subgraph pattern in local indices. Values are
	// irrelevant to AMD; ones keep the CSR constructor happy.
	m := len(verts)
	ptr := make([]int, m+1)
	for li, v := range verts {
		cols, _ := nd.a.Row(v)
		deg := 0
		for _, u := range cols {
			if nd.mark[u] == nd.epoch {
				deg++
			}
		}
		ptr[li+1] = ptr[li] + deg
	}
	cols := make([]int32, ptr[m])
	vals := make([]float64, ptr[m])
	pos := 0
	for _, v := range verts {
		rcols, _ := nd.a.Row(v)
		for _, u := range rcols {
			if nd.mark[u] == nd.epoch {
				cols[pos] = int32(nd.loc[u])
				vals[pos] = 1
				pos++
			}
		}
	}
	sub := sparse.NewCSR(m, m, ptr, cols, vals)
	for _, li := range AMDOrder(sub) {
		nd.out = append(nd.out, verts[li])
	}
}

func sortInts(s []int) { slices.Sort(s) }
