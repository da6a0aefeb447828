package iso

// This file implements the allocation-free equitable refinement at the heart
// of the canonical search. The hot path performs no fmt formatting, builds
// no strings and allocates no maps: vertex signatures are integer vectors
// written into flat scratch buffers that are reused across every refinement
// pass and every node of the backtracking search (DESIGN.md §8).

// csr holds a Sparse's arcs in compressed-sparse-row form, so refinement
// passes count multiplicities by scanning neighbor lists (O(arcs)) instead
// of dense adjacency rows (O(n) per vertex per cell). Every row is sorted
// by neighbor, with no neighbor twice: csrOutMult binary-searches it.
type csr struct {
	// Out-arcs grouped by source: for outStart[v] <= a < outStart[v+1],
	// there are outMult[a] arcs v -> outDst[a].
	outStart []int32
	outDst   []int32
	outMult  []int32
	// In-arcs grouped by target: for inStart[v] <= a < inStart[v+1],
	// there are inMult[a] arcs inDst[a] -> v.
	inStart []int32
	inDst   []int32
	inMult  []int32
}

// level is one node's partition state in the backtracking search. Levels are
// owned by canonState and reused across sibling branches and, with their
// state, across searches.
type level struct {
	// lab lists the vertices in partition order; cell k occupies
	// lab[cellStart[k]:cellStart[k+1]].
	lab       []int
	cellStart []int32 // len ncells+1, backed by an n+1 array
	ncells    int
	// uf caches the orbit union-find of the automorphisms discovered so
	// far that fix this level's base pointwise; ufGen is the automorphism
	// count it was built from (rebuilt lazily when new ones appear).
	uf    []int32
	ufGen int
	// tried lists the branch vertices already explored at this node, for
	// the stabilizer-orbit pruning.
	tried []int
}

func (lv *level) discrete(n int) bool { return lv.ncells == n }

// copyFrom makes lv an independent copy of src's partition (uf cache not
// copied; it is rebuilt on demand).
func (lv *level) copyFrom(src *level) {
	copy(lv.lab, src.lab)
	lv.cellStart = lv.cellStart[:len(src.cellStart)]
	copy(lv.cellStart, src.cellStart)
	lv.ncells = src.ncells
	lv.ufGen = -1
}

// initialPartition fills lv with the color partition: vertices grouped by
// color, cells ordered by ascending color value.
func (st *canonState) initialPartition(lv *level) {
	n := st.n
	for i := range lv.lab {
		lv.lab[i] = i
	}
	// Stable counting sort by color (colors are small non-negative ints,
	// but guard against sparse values with a comparison sort fallback).
	maxCol := 0
	ok := true
	for _, col := range st.colors {
		if col < 0 || col > 4*n+16 {
			ok = false
			break
		}
		if col > maxCol {
			maxCol = col
		}
	}
	if ok {
		if cap(st.colorCounts) < maxCol+2 {
			st.colorCounts = make([]int32, maxCol+2)
		}
		counts := st.colorCounts[:maxCol+2]
		for i := range counts {
			counts[i] = 0
		}
		for _, col := range st.colors {
			counts[col+1]++
		}
		for i := 1; i < len(counts); i++ {
			counts[i] += counts[i-1]
		}
		for v := 0; v < n; v++ {
			col := st.colors[v]
			lv.lab[counts[col]] = v
			counts[col]++
		}
	} else {
		insertionSortBy(lv.lab, func(a, b int) int { return st.colors[a] - st.colors[b] })
	}
	lv.cellStart = lv.cellStart[:0]
	for i := 0; i < n; i++ {
		if i == 0 || st.colors[lv.lab[i]] != st.colors[lv.lab[i-1]] {
			lv.cellStart = append(lv.cellStart, int32(i))
		}
	}
	lv.cellStart = append(lv.cellStart, int32(n))
	lv.ncells = len(lv.cellStart) - 1
	lv.ufGen = -1
}

func insertionSortBy(a []int, cmp func(x, y int) int) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && cmp(a[j], x) > 0 {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}

// refine refines lv in place to the coarsest equitable partition at least as
// fine as it, producing exactly the partition (cells and cell order) that
// the original pass-synchronous full-signature algorithm produced: cells
// split by the vector, over all cells, of (out-multiplicity into the cell,
// in-multiplicity from the cell), subcells ordered by ascending vector. The
// implementation is a worklist over splitter fragments — O(Σ key-cell arcs
// + splits) instead of O(n · ncells) per pass — whose bit-exact equivalence
// to the full-vector pass is argued in DESIGN.md §13.
func (st *canonState) refine(lv *level) { st.refineWork(lv, -1) }

// refineSingle refines lv after individualization created the singleton cell
// with index k in an otherwise equitable partition. Only the singleton is
// seeded as a splitter: the parent partition is equitable, so counts toward
// every other cell are uniform, and counts toward the singleton's sibling
// fragment are determined by the sum rule (DESIGN.md §13) — the refinement
// result is identical to seeding all cells, at a fraction of the cost.
func (st *canonState) refineSingle(lv *level, k int) { st.refineWork(lv, k) }

// refineWork is the shared worklist implementation. onlyCell < 0 seeds every
// current cell as a splitter (full refine); otherwise only cell onlyCell.
//
// During refinement a cell is identified by its start position (stable under
// splitting): cellEnd[s] is the end of the cell starting at s, cellOf[v] the
// start of v's cell. lv.cellStart is rebuilt from the boundary chain at the
// end. A "pass" consumes the current key list and enqueues, for every cell
// that existed at the start of the pass and split during it, all fragments
// but the last — matching one full-signature pass of the original algorithm.
func (st *canonState) refineWork(lv *level, onlyCell int) {
	n := st.n
	if lv.ncells == n {
		return
	}
	for k := 0; k < lv.ncells; k++ {
		s, e := lv.cellStart[k], lv.cellStart[k+1]
		st.cellEnd[s] = e
		for i := s; i < e; i++ {
			st.cellOf[lv.lab[i]] = s
		}
	}
	ncells := lv.ncells
	cur, nxt := st.keysA[:0], st.keysB[:0]
	if onlyCell >= 0 {
		cur = append(cur, lv.cellStart[onlyCell], lv.cellStart[onlyCell+1])
	} else {
		for k := 0; k < lv.ncells; k++ {
			cur = append(cur, lv.cellStart[k], lv.cellStart[k+1])
		}
	}
	for len(cur) > 0 && ncells < n {
		for ki := 0; ki+1 < len(cur) && ncells < n; ki += 2 {
			ncells = st.refineStep(lv, cur[ki], cur[ki+1], ncells)
		}
		// End of pass: enqueue all-but-last fragments of each split parent,
		// parents ascending, fragments ascending — the key order the
		// full-vector pass implies.
		nxt = nxt[:0]
		if ncells < n {
			sortInt32s(st.splitParents)
			for _, p := range st.splitParents {
				pe := st.passEnd[p]
				for s := p; s < pe; {
					fe := st.cellEnd[s]
					if fe < pe {
						nxt = append(nxt, s, fe)
					}
					s = fe
				}
			}
		}
		for _, f := range st.fragList {
			st.isFrag.clear(f)
		}
		st.fragList = st.fragList[:0]
		for _, p := range st.splitParents {
			st.parentMark.clear(p)
		}
		st.splitParents = st.splitParents[:0]
		cur, nxt = nxt, cur[:0]
	}
	st.keysA, st.keysB = cur[:0], nxt[:0]
	// Rebuild the compact cell table from the boundary chain.
	cs := lv.cellStart[:0]
	for s := int32(0); s < int32(n); s = st.cellEnd[s] {
		cs = append(cs, s)
	}
	cs = append(cs, int32(n))
	lv.cellStart = cs
	lv.ncells = len(cs) - 1
}

// refineStep processes one splitter fragment [ks, ke): accumulates each
// vertex's arc multiplicities into and out of the fragment, splits every
// touched multi-vertex cell by the (out, in) count pair with a stable sort,
// and resets the count scratch. Returns the updated cell count.
//
// The fragment is identified by its position range as captured at enqueue
// time; later splits only permute vertices within subranges, so the range
// still denotes the same vertex set when the key is consumed.
func (st *canonState) refineStep(lv *level, ks, ke int32, ncells int) int {
	g := st.g
	cntOut, cntIn := st.cntOut, st.cntIn
	touched := st.touched[:0]
	for i := ks; i < ke; i++ {
		u := lv.lab[i]
		// Arcs x -> u give x an out-count into the fragment; arcs u -> y
		// give y an in-count from it.
		for a := g.inStart[u]; a < g.inStart[u+1]; a++ {
			x := g.inDst[a]
			if cntOut[x] == 0 && cntIn[x] == 0 {
				touched = append(touched, x)
			}
			cntOut[x] += g.inMult[a]
		}
		for a := g.outStart[u]; a < g.outStart[u+1]; a++ {
			y := g.outDst[a]
			if cntOut[y] == 0 && cntIn[y] == 0 {
				touched = append(touched, y)
			}
			cntIn[y] += g.outMult[a]
		}
	}
	aff := st.affCells[:0]
	for _, x := range touched {
		s := st.cellOf[x]
		if st.cellEnd[s]-s > 1 && !st.cellMark.test(s) {
			st.cellMark.set(s)
			aff = append(aff, s)
		}
	}
	for _, s := range aff {
		st.cellMark.clear(s)
		ncells = st.splitCell(lv, s, ncells)
	}
	for _, x := range touched {
		cntOut[x], cntIn[x] = 0, 0
	}
	st.touched, st.affCells = touched[:0], aff[:0]
	return ncells
}

// splitCell splits the cell starting at s by the current count pairs,
// inserting boundaries at every count change after a stable sort, and
// records the pass-parent bookkeeping the end-of-pass key building needs.
func (st *canonState) splitCell(lv *level, s int32, ncells int) int {
	e := st.cellEnd[s]
	seg := lv.lab[s:e]
	o0, i0 := st.cntOut[seg[0]], st.cntIn[seg[0]]
	uniform := true
	for _, v := range seg[1:] {
		if st.cntOut[v] != o0 || st.cntIn[v] != i0 {
			uniform = false
			break
		}
	}
	if uniform {
		return ncells
	}
	st.sortCellByCnt(seg)
	// p is the cell's ancestor at the start of this pass. A first split of a
	// pass-start cell records it and captures its pass-start extent; cells
	// that are themselves fragments of this pass inherit their recorded
	// parent (which was marked when they were created).
	p := s
	if st.isFrag.test(s) {
		p = st.fragParent[s]
	} else if !st.parentMark.test(s) {
		st.parentMark.set(s)
		st.splitParents = append(st.splitParents, s)
		st.passEnd[s] = e
	}
	fb := st.fragBounds[:0]
	fb = append(fb, s)
	for i := s + 1; i < e; i++ {
		a, b := lv.lab[i-1], lv.lab[i]
		if st.cntOut[a] != st.cntOut[b] || st.cntIn[a] != st.cntIn[b] {
			fb = append(fb, i)
		}
	}
	for fi, fs := range fb {
		fe := e
		if fi+1 < len(fb) {
			fe = fb[fi+1]
		}
		st.cellEnd[fs] = fe
		if fi > 0 {
			for i := fs; i < fe; i++ {
				st.cellOf[lv.lab[i]] = fs
			}
			st.isFrag.set(fs)
			st.fragList = append(st.fragList, fs)
			st.fragParent[fs] = p
		}
	}
	st.fragBounds = fb[:0]
	return ncells + len(fb) - 1
}

// individualize splits vertex v (currently in cell k) out of its cell as a
// preceding singleton, in place.
func (lv *level) individualize(k int, v int) {
	s, e := int(lv.cellStart[k]), int(lv.cellStart[k+1])
	// Move v to the front of its cell.
	for i := s; i < e; i++ {
		if lv.lab[i] == v {
			copy(lv.lab[s+1:i+1], lv.lab[s:i])
			lv.lab[s] = v
			break
		}
	}
	// Insert a boundary after position s.
	lv.cellStart = append(lv.cellStart, 0)
	copy(lv.cellStart[k+2:], lv.cellStart[k+1:])
	lv.cellStart[k+1] = int32(s + 1)
	lv.ncells++
}
