package fem

import (
	"fmt"

	"emvia/internal/mat"
	"emvia/internal/sparse"
)

// Node-centric fixed-pattern stiffness assembly.
//
// The old path stamped 24×24 element blocks into a COO triplet and paid for
// a bucket sort, per-row sorts and a duplicate merge on every solve (~40% of
// a characterization run). This path exploits the structured lattice instead:
// each matrix row belongs to one node, a node couples only to the ≤27 lattice
// neighbors it shares a solid cell with, and those neighbors — visited in
// (k,j,i) order — yield the row's column indices already sorted. Rows are
// therefore built node by node with no merge step, each accumulating its ≤8
// incident element contributions in ascending cell order; the FEA results
// are pinned bit for bit to that order.

// perm8 reorders mesh.CellNodes hex ordering (bottom face CCW, then top)
// into ascending node-id order.
var perm8 = [8]int{0, 1, 3, 2, 4, 5, 7, 6}

// nbrMask8 maps an incident-cell octant (oz*4+oy*2+ox, where the cell index
// along x is i-1+ox, etc.) to the bitmask of neighbor offsets
// (dk+1)*9+(dj+1)*3+(di+1) covered by that cell's eight nodes.
var nbrMask8 = func() [8]uint32 {
	var m [8]uint32
	for oz := 0; oz < 2; oz++ {
		for oy := 0; oy < 2; oy++ {
			for ox := 0; ox < 2; ox++ {
				var bits uint32
				for dk := oz - 1; dk <= oz; dk++ {
					for dj := oy - 1; dj <= oy; dj++ {
						for di := ox - 1; di <= ox; di++ {
							bits |= 1 << uint((dk+1)*9+(dj+1)*3+(di+1))
						}
					}
				}
				m[oz*4+oy*2+ox] = bits
			}
		}
	}
	return m
}()

// localNode returns the mesh.CellNodes local index of the node at offset
// (dxo,dyo,dzo) ∈ {0,1}³ within a cell.
func localNode(dxo, dyo, dzo int) int {
	a := dxo
	if dyo == 1 {
		a = 3 - dxo
	}
	return 4*dzo + a
}

// assembly is the assembled free-DOF system.
type assembly struct {
	a   *sparse.CSR
	rhs []float64
	eq  []int // dof → equation number, -1 when fixed/inactive
	nEq int
}

// assemble builds the stiffness matrix and thermal-load vector over the free
// DOFs, writing the int32 column indices of the CSR directly.
func (m *Model) assemble() (*assembly, error) {
	g := m.Grid
	nn := g.NumNodes()
	ndof := 3 * nn

	active := m.activeNodes()
	constrained := m.constrainedDOFs(active)

	// Equation numbering over free DOFs.
	eq := make([]int, ndof)
	nEq := 0
	for d := 0; d < ndof; d++ {
		node := d / 3
		if active[node] && !constrained[d] {
			eq[d] = nEq
			nEq++
		} else {
			eq[d] = -1
		}
	}
	if nEq == 0 {
		return nil, fmt.Errorf("fem: no free degrees of freedom (empty or fully constrained model)")
	}

	nx, ny, nz := g.CellDims()
	nnx, nny, _ := g.NodeDims()

	// Element table: one integrated (ke, fe) per distinct (size, material)
	// key, discovered in cell order so key indices are stable. cellElem
	// maps every solid cell to its table entry (-1 for holes).
	cellElem := make([]int32, nx*ny*nz)
	keyIdx := make(map[elemKey]int32)
	var elems []elemData
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				cid := (k*ny+j)*nx + i
				id := g.Material(i, j, k)
				if id == mat.None {
					cellElem[cid] = -1
					continue
				}
				dx, dy, dz := g.CellSize(i, j, k)
				key := elemKey{dx, dy, dz, id}
				idx, ok := keyIdx[key]
				if !ok {
					props, err := mat.Properties(id)
					if err != nil {
						return nil, fmt.Errorf("fem: cell (%d,%d,%d): %w", i, j, k, err)
					}
					idx = int32(len(elems))
					keyIdx[key] = idx
					elems = append(elems, elemData{})
					ed := &elems[idx]
					ed.ke, ed.fe = elemStiffness(dx, dy, dz, props, m.DeltaT)
				}
				cellElem[cid] = idx
			}
		}
	}

	// freeCnt[n] is the number of free DOFs of node n (its column count
	// contribution to every row it couples with).
	freeCnt := make([]uint8, nn)
	for n := 0; n < nn; n++ {
		var c uint8
		for d := 3 * n; d < 3*n+3; d++ {
			if eq[d] >= 0 {
				c++
			}
		}
		freeCnt[n] = c
	}

	// Pass A: per-node row width = Σ freeCnt over coupled neighbors.
	rowWidth := make([]int32, nn)
	for n := 0; n < nn; n++ {
		if freeCnt[n] == 0 {
			continue
		}
		i := n % nnx
		j := (n / nnx) % nny
		k := n / (nnx * nny)
		mask := couplingMask(cellElem, i, j, k, nx, ny, nz)
		var w int32
		for bit := 0; bit < 27; bit++ {
			if mask&(1<<uint(bit)) == 0 {
				continue
			}
			di := bit%3 - 1
			dj := (bit/3)%3 - 1
			dk := bit/9 - 1
			w += int32(freeCnt[(dk*nny+dj)*nnx+di+n])
		}
		rowWidth[n] = w
	}

	// Row pointers: every free row of a node shares that node's width.
	ptr := make([]int, nEq+1)
	r := 0
	for n := 0; n < nn; n++ {
		w := int(rowWidth[n])
		for d := 3 * n; d < 3*n+3; d++ {
			if eq[d] >= 0 {
				ptr[r+1] = ptr[r] + w
				r++
			}
		}
	}
	nnz := ptr[nEq]
	cols := make([]int32, nnz)
	vals := make([]float64, nnz)
	rhs := make([]float64, nEq)

	// Pass B: fill each node's rows — columns once, then scatter the ≤8
	// incident element blocks in ascending cell order.
	for n := 0; n < nn; n++ {
		if rowWidth[n] == 0 {
			continue
		}
		i := n % nnx
		j := (n / nnx) % nny
		k := n / (nnx * nny)

		// Row bases for the free components of node n; r0 is the
		// first one, whose cols slice is built and then copied to
		// the siblings (identical layout).
		var base [3]int
		r0 := -1
		for c := 0; c < 3; c++ {
			base[c] = -1
			if rr := eq[3*n+c]; rr >= 0 {
				base[c] = ptr[rr]
				if r0 < 0 {
					r0 = ptr[rr]
				}
			}
		}
		w := int(rowWidth[n])
		rowCols := cols[r0 : r0+w]

		mask := couplingMask(cellElem, i, j, k, nx, ny, nz)
		pos := 0
		for bit := 0; bit < 27; bit++ {
			if mask&(1<<uint(bit)) == 0 {
				continue
			}
			di := bit%3 - 1
			dj := (bit/3)%3 - 1
			dk := bit/9 - 1
			mn := (dk*nny+dj)*nnx + di + n
			for cc := 0; cc < 3; cc++ {
				if col := eq[3*mn+cc]; col >= 0 {
					rowCols[pos] = int32(col)
					pos++
				}
			}
		}
		for c := 0; c < 3; c++ {
			if base[c] >= 0 && base[c] != r0 {
				copy(cols[base[c]:base[c]+w], rowCols)
			}
		}

		// Scatter incident cells in ascending cell-id order.
		for oz := 0; oz < 2; oz++ {
			ck := k - 1 + oz
			if ck < 0 || ck >= nz {
				continue
			}
			for oy := 0; oy < 2; oy++ {
				cj := j - 1 + oy
				if cj < 0 || cj >= ny {
					continue
				}
				for ox := 0; ox < 2; ox++ {
					ci := i - 1 + ox
					if ci < 0 || ci >= nx {
						continue
					}
					ei := cellElem[(ck*ny+cj)*nx+ci]
					if ei < 0 {
						continue
					}
					ed := &elems[ei]
					nodes := g.CellNodes(ci, cj, ck)
					aLoc := localNode(1-ox, 1-oy, 1-oz)
					pos := 0
					for _, p8 := range perm8 {
						mn := nodes[p8]
						for cc := 0; cc < 3; cc++ {
							col := eq[3*mn+cc]
							if col < 0 {
								continue
							}
							for int(rowCols[pos]) < col {
								pos++
							}
							for c := 0; c < 3; c++ {
								if base[c] >= 0 {
									vals[base[c]+pos] += ed.ke[(3*aLoc+c)*24+3*p8+cc]
								}
							}
							pos++
						}
					}
					for c := 0; c < 3; c++ {
						if rr := eq[3*n+c]; rr >= 0 {
							rhs[rr] += ed.fe[3*aLoc+c]
						}
					}
				}
			}
		}

	}

	return &assembly{
		a:   sparse.NewCSR(nEq, nEq, ptr, cols, vals),
		rhs: rhs,
		eq:  eq,
		nEq: nEq,
	}, nil
}

// couplingMask returns the 27-bit neighbor-offset mask of node (i,j,k): bit
// (dk+1)*9+(dj+1)*3+(di+1) is set when the node shares at least one solid
// incident cell with the node at that offset (bit 13 — the node itself — is
// set whenever any incident cell is solid).
func couplingMask(cellElem []int32, i, j, k, nx, ny, nz int) uint32 {
	var mask uint32
	for oz := 0; oz < 2; oz++ {
		ck := k - 1 + oz
		if ck < 0 || ck >= nz {
			continue
		}
		for oy := 0; oy < 2; oy++ {
			cj := j - 1 + oy
			if cj < 0 || cj >= ny {
				continue
			}
			for ox := 0; ox < 2; ox++ {
				ci := i - 1 + ox
				if ci < 0 || ci >= nx {
					continue
				}
				if cellElem[(ck*ny+cj)*nx+ci] >= 0 {
					mask |= nbrMask8[oz*4+oy*2+ox]
				}
			}
		}
	}
	return mask
}
