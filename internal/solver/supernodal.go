package solver

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"emvia/internal/par"
	"emvia/internal/sparse"
	"emvia/internal/telemetry"
)

// SupernodalCholesky is a blocked sparse LLᵀ factorization P·A·Pᵀ = L·Lᵀ for
// large SPD systems. It shares the scalar SparseCholesky's contract — fixed
// sparsity pattern, allocation-free refactorization and triangular solves,
// edge solves over elimination-tree paths — but stores L in supernodal panels and runs
// the numeric factorization as parallel supernode tasks over the elimination
// tree.
//
// A supernode is a maximal run of consecutive columns with identical
// below-diagonal structure (detected from the etree: parent[j] == j+1 and
// colcount[j] == colcount[j+1]+1, width-capped at snMaxWidth). Its columns
// are stored column-major in one dense panel of lr rows, lr = |pattern of the
// first column|; entry (row position ri, column jj) lives at jj·lr+ri, and
// positions ri < jj (the strictly-upper triangle of the diagonal block) are
// dead. Left-looking supernode-supernode updates then run as dense
// rank-w_d kernels over contiguous memory instead of scalar scatter chains,
// which is where both the serial speedup and the parallel scalability come
// from.
//
// Determinism: each target column accumulates its updates in a fixed order —
// source supernodes ascending (the static update lists are built sorted),
// source columns ascending, rows ascending — and every supernode/column is
// computed by exactly one worker per dispatch. The schedule only changes
// which worker runs a task, never the arithmetic inside one, so the factor
// is bit-identical at any worker count, including the serial path.
type SupernodalCholesky struct {
	n          int
	perm, invp []int
	parent     []int // column elimination tree; -1 = root

	pool *par.Pool // nil = serial

	// Supernode partition. Column j belongs to supernode snOf[j]; supernode s
	// covers columns [snCol[s], snCol[s+1]).
	nsup  int
	snCol []int32
	snOf  []int32

	// Row structure: snRows[snRptr[s]:snRptr[s+1]] lists the permuted row ids
	// of supernode s's panel, ascending; the first width(s) entries are the
	// supernode's own columns.
	snRows []int32
	snRptr []int

	// Panel values: the panel of supernode s is px[pptr[s] : pptr[s]+w·lr].
	px   []float64
	pptr []int

	// A-value scatter, grouped by target column (permuted): for t in
	// [asColPtr[j], asColPtr[j+1]), row position asRI[t] of column j's panel
	// slice loads a.ValueAt(asSlot[t]).
	asColPtr []int
	asSlot   []int32
	asRI     []int32

	// Static update lists, grouped by target supernode and sorted by source
	// ascending: entry t says rows [updRS[t], updRS[t]+updNC[t]) of source
	// supernode updSrc[t]'s row list land on target columns.
	uptr   []int
	updSrc []int32
	updRS  []int32
	updNC  []int32

	// Level schedule: supernodes of level l are
	// levelList[levelPtr[l]:levelPtr[l+1]], each level depending only on
	// completed earlier levels. lvlWork[l] estimates the level's panel work
	// for the parallel-dispatch threshold.
	levelPtr  []int
	levelList []int32
	lvlWork   []int

	// Column chunks of the parallel prep phase, grouped by level: chunk t
	// covers columns [chLo[t], chHi[t]) of supernode chSn[t]; level l owns
	// chunks [lvlChPtr[l], lvlChPtr[l+1]). Chunking the prep by column gives
	// the update aggregation — the dominant cost — worker-count-independent
	// load balance even when a level holds a single fat separator supernode.
	lvlChPtr []int
	chSn     []int32
	chLo     []int32
	chHi     []int32

	// Per-worker scratch (indexed by pool slot): relmap maps permuted row id
	// to panel row position of the supernode relFor[slot] (-1 entries
	// elsewhere); ybuf accumulates one update column.
	relmap [][]int32
	relFor []int32
	ybuf   [][]float64

	z    []float64 // permuted solve vector
	errs []error   // per-supernode factorization error, nil between calls

	// Pre-created dispatch closures (allocation-free refactors) and their
	// per-dispatch arguments.
	prepFn    func(b, slot int)
	factorFn  func(b, slot int)
	curList   []int32
	curChBase int

	nnzL   int // true entry count of L (dead panel corners excluded)
	maxLr  int
	amat   *sparse.CSR // matrix of the dispatch in flight
	failed int32       // any-task-failed flag of the refactor in flight (atomic)
}

// snMaxWidth caps supernode width: wider panels waste dead diagonal-block
// corners and coarsen the parallel task grain faster than the dense-kernel
// efficiency improves.
const snMaxWidth = 32

// snPrepChunk is the column granularity of the parallel prep phase.
const snPrepChunk = 4

// snAmalgSlack is the absolute stored-zero budget below which an
// amalgamation is always accepted (whatever the ratio); beyond it the waste
// must stay under a third of the panel.
const snAmalgSlack = 24

// snLevelParMinWork is the minimum total flop estimate of a level before its
// dispatch across workers beats running it inline: leaf levels of the
// elimination tree hold thousands of near-empty supernodes whose combined
// work is below one dispatch round-trip.
const snLevelParMinWork = 32768

// NewSupernodalCholeskyFromCSR orders a with AutoOrder (AMD below NDMinNodes,
// nested dissection above), runs the symbolic analysis and factors the
// matrix on pool (nil = serial). It returns ErrNotSPD when a pivot is
// non-positive.
func NewSupernodalCholeskyFromCSR(a *sparse.CSR, pool *par.Pool) (*SupernodalCholesky, error) {
	return NewSupernodalCholeskyOrdered(a, AutoOrder(a), pool)
}

// NewSupernodalCholeskyOrdered is NewSupernodalCholeskyFromCSR with a
// caller-chosen elimination order.
func NewSupernodalCholeskyOrdered(a *sparse.CSR, perm []int, pool *par.Pool) (*SupernodalCholesky, error) {
	n, m := a.Dims()
	if n != m {
		return nil, fmt.Errorf("solver: supernodal factor needs a square matrix, got %d×%d", n, m)
	}
	if len(perm) != n {
		return nil, fmt.Errorf("solver: permutation length %d, want %d", len(perm), n)
	}
	c := &SupernodalCholesky{n: n, perm: append([]int(nil), perm...), pool: pool}
	c.invp = make([]int, n)
	for i := range c.invp {
		c.invp[i] = -1
	}
	for k, p := range perm {
		if p < 0 || p >= n || c.invp[p] >= 0 {
			return nil, fmt.Errorf("solver: perm is not a permutation of 0..%d", n-1)
		}
		c.invp[p] = k
	}
	c.symbolic(a)
	if err := c.RefactorFromCSR(a); err != nil {
		return nil, err
	}
	return c, nil
}

// symbolic runs the scalar symbolic analysis (etree, row patterns, column
// structure), partitions columns into supernodes, and precomputes the static
// structures of the numeric phases: panel layouts, A-scatter targets, update
// lists and the level schedule.
func (c *SupernodalCholesky) symbolic(a *sparse.CSR) {
	n := c.n

	// Upper triangle of the permuted pattern plus raw A-scatter tuples
	// (permuted row, permuted col, CSR slot), exactly as the scalar path.
	upPtr := make([]int, n+1)
	var upCols []int32
	type atup struct{ k, j, slot int32 }
	var atups []atup
	for k := 0; k < n; k++ {
		orig := c.perm[k]
		cols, _ := a.Row(orig)
		if len(cols) > 0 {
			base := a.SlotIndex(orig, int(cols[0]))
			for t, col := range cols {
				j := c.invp[col]
				if j > k {
					continue
				}
				atups = append(atups, atup{int32(k), int32(j), int32(base + t)})
				if j < k {
					upCols = append(upCols, int32(j))
				}
			}
		}
		upPtr[k+1] = len(upCols)
	}

	// Elimination tree (Liu's algorithm with path compression).
	c.parent = make([]int, n)
	anc := make([]int, n)
	for k := 0; k < n; k++ {
		c.parent[k] = -1
		anc[k] = -1
		for t := upPtr[k]; t < upPtr[k+1]; t++ {
			for i := int(upCols[t]); i != -1 && i < k; {
				next := anc[i]
				anc[i] = k
				if next == -1 {
					c.parent[i] = k
				}
				i = next
			}
		}
	}

	// Row patterns via ereach, and per-column counts.
	rowptr := make([]int, n+1)
	var srow []int32
	colcount := make([]int, n)
	stamp := make([]int, n)
	for i := range stamp {
		stamp[i] = -1
	}
	scratch := make([]int, 0, 64)
	for k := 0; k < n; k++ {
		stamp[k] = k
		scratch = scratch[:0]
		for t := upPtr[k]; t < upPtr[k+1]; t++ {
			for i := int(upCols[t]); stamp[i] != k; i = c.parent[i] {
				stamp[i] = k
				scratch = append(scratch, i)
			}
		}
		sort.Ints(scratch)
		for _, j := range scratch {
			srow = append(srow, int32(j))
			colcount[j]++
		}
		rowptr[k+1] = len(srow)
	}

	// Supernode partition: fundamental supernodes from the etree chain rule,
	// width-capped. On mesh orderings fundamental supernodes are almost all
	// single columns, so a relaxed amalgamation pass follows.
	c.snOf = make([]int32, n)
	fund := []int32{0}
	for j := 1; j < n; j++ {
		first := int(fund[len(fund)-1])
		mergeable := c.parent[j-1] == j && colcount[j-1] == colcount[j]+1 && j-first < snMaxWidth
		if !mergeable {
			fund = append(fund, int32(j))
		}
	}
	fund = append(fund, int32(n))

	// Relaxed amalgamation: absorb a supernode into its etree-chain successor
	// when the explicitly-stored zeros this adds stay a small fraction of the
	// panel. The merged panel's rows are its own columns followed by the true
	// tail pattern of its LAST column (every member column's pattern nests
	// inside that by the chain inclusion), so member columns may store exact
	// zeros; those cost bounded extra flops and buy the wide dense panels the
	// blocked kernels need. With j1 the last column of a group, the group's
	// tail length is colcount[j1] and its stored row count is width +
	// colcount[j1].
	truenz := make([]int, len(fund)) // true nnz per fundamental supernode
	for fi := 0; fi+1 < len(fund); fi++ {
		for j := fund[fi]; j < fund[fi+1]; j++ {
			truenz[fi] += 1 + colcount[j]
		}
	}
	c.snCol = append(c.snCol[:0], 0)
	curW := int(fund[1])
	curNZ := truenz[0]
	for fi := 1; fi+1 < len(fund); fi++ {
		jf := int(fund[fi])
		wf := int(fund[fi+1]) - jf
		tf := colcount[int(fund[fi+1])-1]
		chainOK := c.parent[jf-1] == jf
		wNew := curW + wf
		lrNew := wNew + tf
		stored := wNew*lrNew - wNew*(wNew-1)/2
		nzNew := curNZ + truenz[fi]
		waste := stored - nzNew
		if chainOK && wNew <= snMaxWidth && (waste <= snAmalgSlack || waste*3 <= stored) {
			curW, curNZ = wNew, nzNew
			continue
		}
		c.snCol = append(c.snCol, int32(jf))
		curW, curNZ = wf, truenz[fi]
	}
	c.nsup = len(c.snCol)
	c.snCol = append(c.snCol, int32(n))
	for s := 0; s < c.nsup; s++ {
		for j := c.snCol[s]; j < c.snCol[s+1]; j++ {
			c.snOf[j] = int32(s)
		}
	}

	// Column structure of L (transient): diagonal-first CSC, used to read off
	// each supernode's row list from its first column.
	colptr := make([]int, n+1)
	for j := 0; j < n; j++ {
		colptr[j+1] = colptr[j] + 1 + colcount[j]
	}
	rowind := make([]int32, colptr[n])
	cpos := make([]int, n)
	for j := 0; j < n; j++ {
		rowind[colptr[j]] = int32(j)
		cpos[j] = colptr[j] + 1
	}
	for k := 0; k < n; k++ {
		for t := rowptr[k]; t < rowptr[k+1]; t++ {
			j := srow[t]
			rowind[cpos[j]] = int32(k)
			cpos[j]++
		}
	}

	// Panel layouts: the row list of a (possibly amalgamated) supernode is its
	// own columns followed by the true tail pattern of its last column.
	c.snRptr = make([]int, c.nsup+1)
	c.pptr = make([]int, c.nsup+1)
	c.nnzL = 0
	c.maxLr = 0
	for s := 0; s < c.nsup; s++ {
		j0 := int(c.snCol[s])
		w := int(c.snCol[s+1]) - j0
		lr := w + colcount[j0+w-1]
		c.snRptr[s+1] = c.snRptr[s] + lr
		c.pptr[s+1] = c.pptr[s] + w*lr
		c.nnzL += w*lr - w*(w-1)/2
		if lr > c.maxLr {
			c.maxLr = lr
		}
	}
	c.snRows = make([]int32, c.snRptr[c.nsup])
	for s := 0; s < c.nsup; s++ {
		j0 := int(c.snCol[s])
		w := int(c.snCol[s+1]) - j0
		j1 := j0 + w - 1
		base := c.snRptr[s]
		for i := 0; i < w; i++ {
			c.snRows[base+i] = int32(j0 + i)
		}
		copy(c.snRows[base+w:c.snRptr[s+1]], rowind[colptr[j1]+1:colptr[j1+1]])
	}
	c.px = make([]float64, c.pptr[c.nsup])

	// A-scatter grouped by target column. Row position of permuted row k
	// within the target panel comes from a binary search of the (ascending)
	// row list.
	c.asColPtr = make([]int, n+1)
	for _, t := range atups {
		c.asColPtr[t.j+1]++
	}
	for j := 0; j < n; j++ {
		c.asColPtr[j+1] += c.asColPtr[j]
	}
	c.asSlot = make([]int32, len(atups))
	c.asRI = make([]int32, len(atups))
	fillpos := make([]int, n)
	copy(fillpos, c.asColPtr[:n])
	for _, t := range atups {
		s := c.snOf[t.j]
		rows := c.snRows[c.snRptr[s]:c.snRptr[s+1]]
		// Inline lower-bound search (sort.Search's closure would allocate
		// once per nonzero of A).
		lo, hi := 0, len(rows)
		for lo < hi {
			mid := (lo + hi) / 2
			if rows[mid] < t.k {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		ri := lo
		p := fillpos[t.j]
		c.asSlot[p] = t.slot
		c.asRI[p] = int32(ri)
		fillpos[t.j] = p + 1
	}

	// Static update lists: for each source supernode d, group the tail of its
	// row list (positions ≥ width) into runs per target supernode. Iterating
	// d ascending keeps every target's list sorted by source — the fixed
	// update order the determinism argument relies on.
	updCount := make([]int, c.nsup+1)
	type updTup struct{ tgt, src, rs, nc int32 }
	var utups []updTup
	for d := 0; d < c.nsup; d++ {
		w := int(c.snCol[d+1] - c.snCol[d])
		rows := c.snRows[c.snRptr[d]:c.snRptr[d+1]]
		for u := w; u < len(rows); {
			tgt := c.snOf[rows[u]]
			v := u
			for v < len(rows) && c.snOf[rows[v]] == tgt {
				v++
			}
			utups = append(utups, updTup{tgt, int32(d), int32(u), int32(v - u)})
			updCount[tgt+1]++
			u = v
		}
	}
	c.uptr = make([]int, c.nsup+1)
	for s := 0; s < c.nsup; s++ {
		c.uptr[s+1] = c.uptr[s] + updCount[s+1]
	}
	c.updSrc = make([]int32, len(utups))
	c.updRS = make([]int32, len(utups))
	c.updNC = make([]int32, len(utups))
	copy(fillpos, c.uptr[:c.nsup])
	for _, t := range utups {
		p := fillpos[t.tgt]
		c.updSrc[p] = t.src
		c.updRS[p] = t.rs
		c.updNC[p] = t.nc
		fillpos[t.tgt] = p + 1
	}

	// Level schedule over the supernodal etree: level(s) = 1 + max level of
	// its children; children always have smaller indices, so one ascending
	// pass suffices.
	level := make([]int, c.nsup)
	maxLevel := 0
	for s := 0; s < c.nsup; s++ {
		last := int(c.snCol[s+1]) - 1
		if p := c.parent[last]; p >= 0 {
			sp := int(c.snOf[p])
			if level[s]+1 > level[sp] {
				level[sp] = level[s] + 1
			}
		}
		if level[s] > maxLevel {
			maxLevel = level[s]
		}
	}
	c.levelPtr = make([]int, maxLevel+2)
	for s := 0; s < c.nsup; s++ {
		c.levelPtr[level[s]+1]++
	}
	for l := 0; l < maxLevel+1; l++ {
		c.levelPtr[l+1] += c.levelPtr[l]
	}
	c.levelList = make([]int32, c.nsup)
	lpos := make([]int, maxLevel+1)
	copy(lpos, c.levelPtr[:maxLevel+1])
	for s := 0; s < c.nsup; s++ {
		c.levelList[lpos[level[s]]] = int32(s)
		lpos[level[s]]++
	}

	// Per-level work estimates and prep-phase column chunks.
	c.lvlWork = make([]int, maxLevel+1)
	c.lvlChPtr = make([]int, maxLevel+2)
	for l := 0; l <= maxLevel; l++ {
		nch := 0
		for _, s := range c.levelList[c.levelPtr[l]:c.levelPtr[l+1]] {
			c.lvlWork[l] += c.taskWork(s)
			w := int(c.snCol[s+1] - c.snCol[s])
			nch += (w + snPrepChunk - 1) / snPrepChunk
		}
		c.lvlChPtr[l+1] = c.lvlChPtr[l] + nch
	}
	nch := c.lvlChPtr[maxLevel+1]
	c.chSn = make([]int32, nch)
	c.chLo = make([]int32, nch)
	c.chHi = make([]int32, nch)
	pos := 0
	for l := 0; l <= maxLevel; l++ {
		for _, s := range c.levelList[c.levelPtr[l]:c.levelPtr[l+1]] {
			w := int(c.snCol[s+1] - c.snCol[s])
			for lo := 0; lo < w; lo += snPrepChunk {
				hi := lo + snPrepChunk
				if hi > w {
					hi = w
				}
				c.chSn[pos] = s
				c.chLo[pos] = int32(lo)
				c.chHi[pos] = int32(hi)
				pos++
			}
		}
	}

	// Workspaces and dispatch closures.
	c.z = make([]float64, n)
	c.errs = make([]error, c.nsup)
	c.initScratch()
}

// initScratch sizes the per-worker scratch for the current pool and creates
// the dispatch closures once.
func (c *SupernodalCholesky) initScratch() {
	workers := c.pool.Workers()
	c.relmap = make([][]int32, workers)
	c.relFor = make([]int32, workers)
	c.ybuf = make([][]float64, workers)
	for w := 0; w < workers; w++ {
		rel := make([]int32, c.n)
		for i := range rel {
			rel[i] = -1
		}
		c.relmap[w] = rel
		c.relFor[w] = -1
		c.ybuf[w] = make([]float64, c.maxLr)
	}
	c.prepFn = func(b, slot int) {
		t := c.curChBase + b
		c.prepCols(c.chSn[t], int(c.chLo[t]), int(c.chHi[t]), slot)
	}
	c.factorFn = func(b, slot int) {
		s := c.curList[b]
		if err := c.denseFactor(s); err != nil {
			c.errs[s] = err
			atomic.StoreInt32(&c.failed, 1)
		}
	}
}

// N returns the system dimension.
func (c *SupernodalCholesky) N() int { return c.n }

// NNZ returns the entry count of L, diagonal included (dead panel corners
// excluded).
func (c *SupernodalCholesky) NNZ() int { return c.nnzL }

// Perm returns the elimination order. The slice is internal; callers must
// not modify it.
func (c *SupernodalCholesky) Perm() []int { return c.perm }

// Supernodes returns the number of supernodes of the partition.
func (c *SupernodalCholesky) Supernodes() int { return c.nsup }

// bindRel points slot's row-relocation map at supernode s, clearing the
// previous binding lazily.
func (c *SupernodalCholesky) bindRel(s int32, slot int) []int32 {
	rel := c.relmap[slot]
	if c.relFor[slot] == s {
		return rel
	}
	if old := c.relFor[slot]; old >= 0 {
		for _, r := range c.snRows[c.snRptr[old]:c.snRptr[old+1]] {
			rel[r] = -1
		}
	}
	for i, r := range c.snRows[c.snRptr[s]:c.snRptr[s+1]] {
		rel[r] = int32(i)
	}
	c.relFor[slot] = s
	return rel
}

// clearRel restores the all-minus-one invariant of every slot's map.
func (c *SupernodalCholesky) clearRel() {
	for slot, old := range c.relFor {
		if old >= 0 {
			rel := c.relmap[slot]
			for _, r := range c.snRows[c.snRptr[old]:c.snRptr[old+1]] {
				rel[r] = -1
			}
			c.relFor[slot] = -1
		}
	}
}

// prepCols computes columns [lo, hi) of supernode s up to (not including)
// the dense diagonal-block factorization: zero, scatter A, apply the static
// update list. Columns are independent, so any partition of [0, w) across
// workers yields identical results.
func (c *SupernodalCholesky) prepCols(s int32, lo, hi, slot int) {
	po := c.pptr[s]
	rows := c.snRows[c.snRptr[s]:c.snRptr[s+1]]
	lr := len(rows)
	px := c.px

	a := c.amat
	c0 := int(c.snCol[s])
	for jj := lo; jj < hi; jj++ {
		col := px[po+jj*lr+jj : po+(jj+1)*lr]
		for u := range col {
			col[u] = 0
		}
		base := po + jj*lr
		for t := c.asColPtr[c0+jj]; t < c.asColPtr[c0+jj+1]; t++ {
			px[base+int(c.asRI[t])] = a.ValueAt(int(c.asSlot[t]))
		}
	}

	rel := c.bindRel(s, slot)
	y := c.ybuf[slot]
	for t := c.uptr[s]; t < c.uptr[s+1]; t++ {
		d := c.updSrc[t]
		rs := int(c.updRS[t])
		nc := int(c.updNC[t])
		rowsD := c.snRows[c.snRptr[d]:c.snRptr[d+1]]
		ld := len(rowsD)
		wd := int(c.snCol[d+1] - c.snCol[d])
		pod := c.pptr[d]
		for q := 0; q < nc; q++ {
			jj := int(rowsD[rs+q]) - c0
			if jj < lo || jj >= hi {
				continue
			}
			// y[u] = Σ_k L_d[rs+q+u,k]·L_d[rs+q,k], k over d's columns
			// ascending. The hoisted slices start at row rs+q, so src[0] is
			// the multiplier itself. Four source columns per pass quarters
			// the y-store traffic; the in-statement adds associate left to
			// right, so the sums match the one-column-at-a-time order bit for
			// bit and the unroll factor never changes the result.
			m := ld - rs - q
			yy := y[:m]
			cb := pod + rs + q
			tb := po + jj*lr
			tails := rowsD[rs+q:]
			// All but the last 1–4 source columns accumulate into y four at a
			// time; the final block fuses with the scatter-subtract, so
			// narrow sources — the common case — never round-trip through y.
			// The in-statement adds associate left to right, matching the
			// one-column-at-a-time order, and the scatter hits every tail row
			// of d: they all lie in s's row list by the fill-path lemma.
			r := wd & 3
			if r == 0 {
				r = 4
			}
			kEnd := wd - r
			for k := 0; k < kEnd; k += 4 {
				cb0 := cb + k*ld
				s0 := px[cb0 : cb0+m]
				s1 := px[cb0+ld : cb0+ld+m]
				s2 := px[cb0+2*ld : cb0+2*ld+m]
				s3 := px[cb0+3*ld : cb0+3*ld+m]
				l0, l1, l2, l3 := s0[0], s1[0], s2[0], s3[0]
				for u := range yy {
					yy[u] += s0[u]*l0 + s1[u]*l1 + s2[u]*l2 + s3[u]*l3
				}
			}
			cb0 := cb + kEnd*ld
			switch r {
			case 1:
				s0 := px[cb0 : cb0+m]
				l0 := s0[0]
				if kEnd == 0 {
					for u, t := range tails {
						px[tb+int(rel[t])] -= s0[u] * l0
					}
				} else {
					for u, t := range tails {
						px[tb+int(rel[t])] -= yy[u] + s0[u]*l0
						yy[u] = 0
					}
				}
			case 2:
				s0 := px[cb0 : cb0+m]
				s1 := px[cb0+ld : cb0+ld+m]
				l0, l1 := s0[0], s1[0]
				for u, t := range tails {
					px[tb+int(rel[t])] -= yy[u] + s0[u]*l0 + s1[u]*l1
					yy[u] = 0
				}
			case 3:
				s0 := px[cb0 : cb0+m]
				s1 := px[cb0+ld : cb0+ld+m]
				s2 := px[cb0+2*ld : cb0+2*ld+m]
				l0, l1, l2 := s0[0], s1[0], s2[0]
				for u, t := range tails {
					px[tb+int(rel[t])] -= yy[u] + s0[u]*l0 + s1[u]*l1 + s2[u]*l2
					yy[u] = 0
				}
			default:
				s0 := px[cb0 : cb0+m]
				s1 := px[cb0+ld : cb0+ld+m]
				s2 := px[cb0+2*ld : cb0+2*ld+m]
				s3 := px[cb0+3*ld : cb0+3*ld+m]
				l0, l1, l2, l3 := s0[0], s1[0], s2[0], s3[0]
				for u, t := range tails {
					px[tb+int(rel[t])] -= yy[u] + s0[u]*l0 + s1[u]*l1 + s2[u]*l2 + s3[u]*l3
					yy[u] = 0
				}
			}
		}
	}
}

// denseFactor runs the dense Cholesky of supernode s's diagonal block with
// the triangular solve of its below-block, right-looking across the panel in
// fixed column order.
func (c *SupernodalCholesky) denseFactor(s int32) error {
	po := c.pptr[s]
	lr := c.snRptr[s+1] - c.snRptr[s]
	w := int(c.snCol[s+1] - c.snCol[s])
	px := c.px
	for jj := 0; jj < w; jj++ {
		col := px[po+jj*lr+jj : po+(jj+1)*lr] // col[0] is the diagonal
		d := col[0]
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("%w: supernodal pivot %g at permuted column %d", ErrNotSPD, d, int(c.snCol[s])+jj)
		}
		piv := math.Sqrt(d)
		inv := 1 / piv
		col[0] = piv
		// One division per column, then multiplies: an FP divide costs an
		// order of magnitude more than a multiply and this loop runs once per
		// stored entry of L.
		for u := 1; u < len(col); u++ {
			col[u] *= inv
		}
		for kk := jj + 1; kk < w; kk++ {
			ljk := col[kk-jj]
			if ljk == 0 {
				continue
			}
			tcol := px[po+kk*lr+kk : po+(kk+1)*lr]
			src := col[kk-jj:]
			for u := range tcol {
				tcol[u] -= src[u] * ljk
			}
		}
	}
	return nil
}

// RefactorFromCSR refactors numerically in place from a (same pattern as the
// symbolic analysis), scheduling supernode tasks level by level across the
// pool. It returns ErrNotSPD when a pivot is non-positive; the factor is
// then garbage and must be refactored before further use.
func (c *SupernodalCholesky) RefactorFromCSR(a *sparse.CSR) error {
	n, m := a.Dims()
	if n != c.n || m != c.n {
		return fmt.Errorf("solver: Refactor dimensions %d×%d, want %d×%d", n, m, c.n, c.n)
	}
	recordSparse(telemetry.SparseFactorizations)
	c.amat = a
	atomic.StoreInt32(&c.failed, 0)
	defer func() {
		c.amat = nil
		c.clearRel()
	}()
	workers := c.pool.Workers()
	for l := 0; l+1 < len(c.levelPtr); l++ {
		tasks := c.levelList[c.levelPtr[l]:c.levelPtr[l+1]]
		if workers > 1 && c.lvlWork[l] >= snLevelParMinWork {
			// Phase one: column-chunked prep (zero + A-scatter + update
			// aggregation), the dominant cost, load-balanced independently of
			// how columns group into supernodes. Phase two: per-supernode
			// dense factorization. Updates only flow from strictly earlier
			// levels, so the phases never race.
			c.curChBase = c.lvlChPtr[l]
			c.pool.RunW(c.lvlChPtr[l+1]-c.lvlChPtr[l], c.prepFn)
			c.curList = tasks
			c.pool.RunW(len(tasks), c.factorFn)
		} else {
			for _, s := range tasks {
				w := int(c.snCol[s+1] - c.snCol[s])
				c.prepCols(s, 0, w, 0)
				if err := c.denseFactor(s); err != nil {
					c.errs[s] = err
					atomic.StoreInt32(&c.failed, 1)
				}
			}
		}
		if atomic.LoadInt32(&c.failed) != 0 {
			// Deterministic error selection: the lowest-index failing
			// supernode of the earliest failing level, regardless of which
			// worker hit it first.
			var first error
			for _, s := range tasks {
				if err := c.errs[s]; err != nil {
					if first == nil {
						first = err
					}
					c.errs[s] = nil
				}
			}
			return first
		}
	}
	return nil
}

// taskWork estimates the flops spent on one supernode — the updates
// aggregated into its panel plus its dense factorization, both of which scale
// like width × rows² — for the level-dispatch threshold.
func (c *SupernodalCholesky) taskWork(s int32) int {
	w := int(c.snCol[s+1] - c.snCol[s])
	lr := c.snRptr[s+1] - c.snRptr[s]
	return w * lr * lr
}

// SolveInto overwrites x with A⁻¹·b without allocating. Both slices must
// have the system dimension; they may alias.
func (c *SupernodalCholesky) SolveInto(x, b []float64) error {
	if len(b) != c.n || len(x) != c.n {
		return fmt.Errorf("solver: SolveInto lengths %d/%d do not match dimension %d", len(x), len(b), c.n)
	}
	recordSparse(telemetry.SparseSolves)
	n, px, z := c.n, c.px, c.z
	for k := 0; k < n; k++ {
		z[k] = b[c.perm[k]]
	}
	for s := 0; s < c.nsup; s++ { // forward: L·z' = P·b
		po := c.pptr[s]
		rows := c.snRows[c.snRptr[s]:c.snRptr[s+1]]
		lr := len(rows)
		w := int(c.snCol[s+1] - c.snCol[s])
		c0 := int(c.snCol[s])
		for jj := 0; jj < w; jj++ {
			base := po + jj*lr
			zj := z[c0+jj] / px[base+jj]
			z[c0+jj] = zj
			for u := jj + 1; u < lr; u++ {
				z[rows[u]] -= px[base+u] * zj
			}
		}
	}
	c.backward(z)
	for k := 0; k < n; k++ {
		x[c.perm[k]] = z[k]
	}
	return nil
}

// backward runs the full backward sweep Lᵀ·z = z' in place.
func (c *SupernodalCholesky) backward(z []float64) {
	px := c.px
	for s := c.nsup - 1; s >= 0; s-- {
		po := c.pptr[s]
		rows := c.snRows[c.snRptr[s]:c.snRptr[s+1]]
		lr := len(rows)
		w := int(c.snCol[s+1] - c.snCol[s])
		c0 := int(c.snCol[s])
		for jj := w - 1; jj >= 0; jj-- {
			base := po + jj*lr
			sum := z[c0+jj]
			for u := jj + 1; u < lr; u++ {
				sum -= px[base+u] * z[rows[u]]
			}
			z[c0+jj] = sum / px[base+jj]
		}
	}
}

// colBase locates permuted column j in its panel: values px[base+u] for u in
// [jj, lr) with row ids rows[u].
func (c *SupernodalCholesky) colBase(j int) (base, jj, lr int, rows []int32) {
	s := c.snOf[j]
	jj = j - int(c.snCol[s])
	rows = c.snRows[c.snRptr[s]:c.snRptr[s+1]]
	lr = len(rows)
	base = c.pptr[s] + jj*lr
	return base, jj, lr, rows
}

// SolveEdgeInto implements SparseFactor.SolveEdgeInto for the supernodal
// backend. The columns of a supernode form an etree chain and its tail rows
// are ancestors of its last column, so every panel row a path column
// updates lies on the path too; stored amalgamation zeros subtract an exact
// zero, as in the full sweep.
func (c *SupernodalCholesky) SolveEdgeInto(x []float64, fa, fb int, z []float64) error {
	pa, pb, err := checkEdgeArgs(c.invp, x, fa, fb, z)
	if err != nil {
		return err
	}
	recordSparse(telemetry.SparseSolves)
	px := c.px
	if pa >= 0 {
		z[pa] = 1
	}
	if pb >= 0 {
		z[pb] = -1
	}
	for i, j := pa, pb; ; {
		k := nextOnPaths(c.parent, &i, &j)
		if k < 0 {
			break
		}
		base, jj, lr, rows := c.colBase(k)
		zk := z[k] / px[base+jj]
		z[k] = zk
		for u := jj + 1; u < lr; u++ {
			z[rows[u]] -= px[base+u] * zk
		}
	}
	c.backward(z)
	for k := 0; k < c.n; k++ {
		x[c.perm[k]] = z[k]
		z[k] = 0
	}
	return nil
}

// Clone returns a copy with private numeric state (panel values and
// workspaces) sharing the immutable symbolic structure and the pool.
func (c *SupernodalCholesky) Clone() *SupernodalCholesky {
	d := *c
	d.px = append([]float64(nil), c.px...)
	d.z = make([]float64, c.n)
	d.errs = make([]error, c.nsup)
	d.initScratch()
	return &d
}
