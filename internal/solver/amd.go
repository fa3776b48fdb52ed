package solver

import "emvia/internal/sparse"

// AMDOrder computes a fill-reducing elimination ordering for a symmetric
// sparsity pattern using an approximate-minimum-degree heuristic on the
// quotient graph (Amestoy, Davis & Duff). The returned perm has perm[k] = i
// when original row/column i is eliminated k-th, so the permuted matrix is
// C[k1,k2] = A[perm[k1], perm[k2]].
//
// The implementation keeps the three AMD ingredients that matter for grid
// patterns — the quotient graph (eliminated variables become elements instead
// of materializing fill edges), element absorption (an element adjacent to
// the pivot is a subset of the new element and is deleted), and the two-pass
// |Le \ Lp| external-degree approximation — and deliberately omits the
// supervariable hashing of reference AMD: on nodal-analysis grids
// indistinguishable variables are rare, and every simplification keeps the
// ordering deterministic. Any permutation is *correct* (only fill quality
// varies), so callers validate nothing beyond what this function guarantees:
// the result is always a true permutation of 0..n-1.
//
// A non-square matrix degenerates to the natural order, which keeps the
// caller's fallback path trivial.
func AMDOrder(a *sparse.CSR) []int {
	n, m := a.Dims()
	perm := make([]int, n)
	if n != m || n == 0 {
		for i := range perm {
			perm[i] = i
		}
		return perm
	}

	// Quotient-graph state. A node starts as a variable; elimination turns it
	// into an element whose member list is the pivot's structure Lp. Elements
	// adjacent to a later pivot are absorbed (deleted) because their members
	// are a subset of the new element's.
	adj := make([][]int32, n)     // variable–variable edges still explicit
	elems := make([][]int32, n)   // elements adjacent to each variable
	members := make([][]int32, n) // member variables of each element
	for i := 0; i < n; i++ {
		cols, _ := a.Row(i)
		lst := make([]int32, 0, len(cols))
		for _, c := range cols {
			if int(c) != i {
				lst = append(lst, c)
			}
		}
		adj[i] = lst
	}

	const (
		live     = 0
		elim     = 1 // eliminated: node is now an element
		absorbed = 2 // element deleted by absorption
	)
	state := make([]int8, n)

	// Degree buckets: a doubly linked list per approximate degree, scanned
	// from a monotonically maintained minimum. Ties break toward the node
	// inserted last, which is deterministic because every insertion order
	// below is a function of the input pattern alone.
	deg := make([]int, n)
	head := make([]int, n+1)
	next := make([]int, n)
	prev := make([]int, n)
	for i := range head {
		head[i] = -1
	}
	insert := func(i int) {
		d := deg[i]
		next[i] = head[d]
		prev[i] = -1
		if head[d] >= 0 {
			prev[head[d]] = i
		}
		head[d] = i
	}
	remove := func(i int) {
		if prev[i] >= 0 {
			next[prev[i]] = next[i]
		} else {
			head[deg[i]] = next[i]
		}
		if next[i] >= 0 {
			prev[next[i]] = prev[i]
		}
	}
	for i := 0; i < n; i++ {
		deg[i] = len(adj[i])
		insert(i)
	}

	mark := make([]int32, n) // step stamp; mark[i] == stamp ⇔ i ∈ Lp this step
	w := make([]int32, n)    // two-pass |Le \ Lp| accumulator per element; -1 = unset
	for i := range w {
		w[i] = -1
	}
	var stamp int32
	lp := make([]int32, 0, n)
	touched := make([]int32, 0, 16) // elements whose w was set this step

	minDeg := 0
	for k := 0; k < n; k++ {
		// Pick the pivot p with minimum approximate degree.
		for head[minDeg] < 0 {
			minDeg++
		}
		p := head[minDeg]
		remove(p)
		perm[k] = p
		state[p] = elim
		stamp++
		mark[p] = stamp

		// Lp = explicit neighbors ∪ members of adjacent elements, minus
		// eliminated variables and p itself.
		lp = lp[:0]
		for _, j := range adj[p] {
			if state[j] == live && mark[j] != stamp {
				mark[j] = stamp
				lp = append(lp, j)
			}
		}
		for _, e := range elems[p] {
			if state[e] != elim { // already absorbed
				continue
			}
			for _, j := range members[e] {
				if state[j] == live && mark[j] != stamp {
					mark[j] = stamp
					lp = append(lp, j)
				}
			}
			// Le \ {p} ⊆ Lp, so element e is now redundant: absorb it.
			state[e] = absorbed
			members[e] = nil
		}
		adj[p] = nil
		elems[p] = nil

		// Pass 1 of the degree approximation: after this loop w[e] counts
		// |Le \ Lp| for every live element e adjacent to some i ∈ Lp, because
		// each member of e that lies in Lp decrements it exactly once.
		touched = touched[:0]
		for _, i := range lp {
			for _, e := range elems[i] {
				if state[e] != elim {
					continue
				}
				if w[e] < 0 {
					// First sighting this step: count the live members,
					// compacting out eliminated variables while here.
					mem := members[e][:0]
					for _, j := range members[e] {
						if state[j] == live {
							mem = append(mem, j)
						}
					}
					members[e] = mem
					w[e] = int32(len(mem))
					touched = append(touched, e)
				}
				w[e]--
			}
		}

		// Pass 2: rebuild each i ∈ Lp — drop edges into Lp (now covered by
		// the new element p), drop dead nodes, and recompute the approximate
		// external degree d(i) ≈ |Lp \ {i}| + |adj(i) \ Lp| + Σ|Le \ Lp|.
		for _, i32 := range lp {
			i := int(i32)
			al := adj[i][:0]
			for _, j := range adj[i] {
				if state[j] == live && mark[j] != stamp {
					al = append(al, j)
				}
			}
			adj[i] = al
			d := len(lp) - 1 + len(al)
			el := elems[i][:0]
			for _, e := range elems[i] {
				if state[e] == elim {
					el = append(el, e)
					d += int(w[e])
				}
			}
			elems[i] = append(el, int32(p))
			if lim := n - k - 1; d > lim {
				d = lim
			}
			remove(i)
			deg[i] = d
			insert(i)
			if d < minDeg {
				minDeg = d
			}
		}
		for _, e := range touched {
			w[e] = -1
		}
		members[p] = append([]int32(nil), lp...)
	}
	return perm
}

// InversePermutation returns inv with inv[perm[k]] = k. It panics if perm is
// not a permutation of 0..len(perm)-1, which turns a buggy ordering into a
// loud failure instead of a silently wrong factorization.
func InversePermutation(perm []int) []int {
	inv := make([]int, len(perm))
	for i := range inv {
		inv[i] = -1
	}
	for k, p := range perm {
		if p < 0 || p >= len(perm) || inv[p] >= 0 {
			panic("solver: not a permutation")
		}
		inv[p] = k
	}
	return inv
}
