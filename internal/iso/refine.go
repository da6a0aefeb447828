package iso

import "slices"

// This file implements the allocation-free equitable refinement at the heart
// of the canonical search. The hot path performs no fmt formatting, builds
// no strings and allocates no maps: vertex signatures are integer vectors
// written into flat scratch buffers that are reused across every refinement
// pass and every node of the backtracking search (DESIGN.md §8). A split
// costs the vertices its key touched, not its whole cell, and a parent's
// largest fragment is keyed by its complement, so a refine scans
// O(n + m log n) arcs (DESIGN.md §13).

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
	// sym marks an undirected graph, whose in-arcs are its out-arcs: every
	// in-count equals the out-count, so refinement counts one side.
	sym bool
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
// implementation is a worklist over splitter keys, whose bit-exact
// equivalence to the full-vector pass is argued in DESIGN.md §13. The order
// of the vertices inside a cell carries no meaning.
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
// During refinement a cell of two or more vertices is an id: its vertices
// are lab[cStart[c]:endAt[cStart[c]]], cellOf[v] is v's cell and pos[v] v's
// index in lab. A singleton cell has no id (cellOf[v] is -1): nothing
// splits it. endAt is indexed by position and set for every cell, so the
// boundary chain walks in one load per cell, and lv.cellStart is rebuilt
// from it at the end. A split keeps the old id on the vertices its key did
// not touch, so it never visits them. A "pass" consumes the current key
// list and enqueues the keys of every cell that existed at the start of the
// pass and split during it (enqueueFragments) — matching one full-signature
// pass of the original algorithm.
func (st *canonState) refineWork(lv *level, onlyCell int) {
	n := st.n
	if lv.ncells == n {
		return
	}
	lab := lv.lab
	for k := 0; k < lv.ncells; k++ {
		s, e := lv.cellStart[k], lv.cellStart[k+1]
		st.endAt[s] = e
		if e-s == 1 {
			st.cellOf[lab[s]] = -1
			continue
		}
		st.cStart[k] = s
		for i := s; i < e; i++ {
			v := lab[i]
			st.cellOf[v], st.pos[v] = int32(k), i
		}
	}
	ncells := lv.ncells
	cur, nxt := st.keysA[:0], st.keysB[:0]
	if onlyCell >= 0 {
		e := lv.cellStart[onlyCell+1]
		cur = append(cur, lv.cellStart[onlyCell], e, e, e)
	} else {
		for k := 0; k < lv.ncells; k++ {
			e := lv.cellStart[k+1]
			cur = append(cur, lv.cellStart[k], e, e, e)
		}
	}
	for len(cur) > 0 && ncells < n {
		for ki := 0; ki < len(cur) && ncells < n; ki += 4 {
			ncells = st.refineStep(lab, cur[ki:ki+4], ncells)
		}
		// End of pass: enqueue the keys of each split parent, parents
		// ascending — the key order the full-vector pass implies.
		nxt = nxt[:0]
		if ncells < n {
			if len(st.splitParents) > 1 {
				slices.Sort(st.splitParents)
			}
			for _, p := range st.splitParents {
				nxt = st.enqueueFragments(nxt, p)
			}
		}
		for _, c := range st.passCells {
			st.inPass.clear(c)
		}
		st.passCells = st.passCells[:0]
		st.splitParents = st.splitParents[:0]
		cur, nxt = nxt, cur[:0]
	}
	st.keysA, st.keysB = cur[:0], nxt[:0]
	// Rebuild the compact cell table from the boundary chain.
	cs := lv.cellStart[:0]
	for s := int32(0); s < int32(n); s = st.endAt[s] {
		cs = append(cs, s)
	}
	cs = append(cs, int32(n))
	lv.cellStart = cs
	lv.ncells = len(cs) - 1
}

// enqueueFragments appends the next pass's keys from the split parent P
// whose pass-start range is [p, passEnd[p]): every fragment but the last,
// in position order, since the sum rule implies the last (DESIGN.md §13).
// A key is four positions (s, e, hs, he): the vertices of lab[s:e] outside
// the hole lab[hs:he], empty for a fragment's own key. When a fragment F
// holds more than half of P and is not its last, its key is its complement
// in P instead — Hopcroft's "skip the largest" — which splits every cell
// exactly as F does: count(x→F) = count(x→P) − count(x→P∖F), and
// count(x→P) is constant on every cell, so F's ascending count order is the
// complement's descending one.
func (st *canonState) enqueueFragments(keys []int32, p int32) []int32 {
	pe := st.passEnd[p]
	big, at := int32(0), 0
	for s := p; ; {
		e := st.endAt[s]
		if e == pe {
			break
		}
		if e-s > big {
			big, at = e-s, len(keys)
		}
		keys = append(keys, s, e, e, e)
		s = e
	}
	if 2*big > pe-p {
		keys[at+2], keys[at+3] = keys[at], keys[at+1]
		keys[at], keys[at+1] = p, pe
	}
	return keys
}

// refineStep processes one key: accumulates each vertex's arc multiplicities
// into and out of the key's vertex set, gathers the touched vertices of
// every partly touched cell at one end of it, splits the touched
// multi-vertex cells and resets the count scratch. Returns the updated cell
// count.
//
// The key's ranges are positions captured at enqueue time. A key is a union
// of cells, and later splits only permute vertices within cells, so the
// ranges still denote the same vertex set when the key is consumed.
func (st *canonState) refineStep(lab []int, key []int32, ncells int) int {
	s, e, hs, he := key[0], key[1], key[2], key[3]
	touched := st.count(lab[s:hs], st.touched[:0])
	if he < e {
		touched = st.count(lab[he:e], touched)
	}
	// A complement key splits in descending count order: its untouched
	// vertices have the largest count into the fragment it stands for, so
	// they stay at the back and the touched ones gather at the front.
	desc := hs < he
	aff := st.affCells[:0]
	for _, x := range touched {
		c := st.cellOf[x]
		if c < 0 {
			continue
		}
		if st.hits[c] == 0 {
			aff = append(aff, c)
		}
		st.hits[c]++
	}
	// Aim a cursor at the touched end of every partly touched cell, whose
	// count turns negative to mark it, and swap its touched vertices there;
	// a wholly touched cell needs no gathering.
	partial := false
	for _, c := range aff {
		cs := st.cStart[c]
		if ce := st.endAt[cs]; st.hits[c] < ce-cs {
			partial = true
			st.hits[c] = -st.hits[c]
			if desc {
				st.cursor[c] = cs
			} else {
				st.cursor[c] = ce - 1
			}
		}
	}
	for i := 0; partial && i < len(touched); i++ {
		x := touched[i]
		c := st.cellOf[x]
		if c < 0 || st.hits[c] >= 0 {
			continue
		}
		d := st.cursor[c]
		if desc {
			st.cursor[c] = d + 1
		} else {
			st.cursor[c] = d - 1
		}
		px, y := st.pos[x], lab[d]
		lab[px], lab[d] = y, int(x)
		st.pos[y], st.pos[x] = px, d
	}
	for _, c := range aff {
		ncells = st.splitCell(lab, c, desc, ncells)
	}
	for _, x := range touched {
		st.cntOut[x], st.cntIn[x] = 0, 0
	}
	st.touched, st.affCells = touched[:0], aff[:0]
	return ncells
}

// count adds, for every vertex x, the arcs x -> u to cntOut[x] and the arcs
// u -> x to cntIn[x] over the vertices u of seg, appending each x whose
// counts leave (0, 0) to touched. On an undirected graph cntIn would equal
// cntOut everywhere, so it stays 0: count pairs (c, 0) order and compare
// exactly as (c, c) would.
func (st *canonState) count(seg []int, touched []int32) []int32 {
	g := st.g
	cntOut, cntIn := st.cntOut, st.cntIn
	for _, u := range seg {
		for a := g.inStart[u]; a < g.inStart[u+1]; a++ {
			x := g.inDst[a]
			if cntOut[x] == 0 && cntIn[x] == 0 {
				touched = append(touched, x)
			}
			cntOut[x] += g.inMult[a]
		}
		if g.sym {
			continue
		}
		for a := g.outStart[u]; a < g.outStart[u+1]; a++ {
			y := g.outDst[a]
			if cntOut[y] == 0 && cntIn[y] == 0 {
				touched = append(touched, y)
			}
			cntIn[y] += g.outMult[a]
		}
	}
	return touched
}

// splitCell splits cell c, whose touched vertices refineStep gathered at
// one end of it, by the current count pairs. Untouched vertices count
// (0, 0), the least pair, so unless every vertex was touched they form the
// first fragment of an ascending split and the last of a descending one:
// they keep the id c and are not visited. Only the touched vertices are
// sorted and cut into fragments with fresh ids (none for a singleton).
// splitCell also records the pass-parent bookkeeping the end-of-pass key
// building needs.
func (st *canonState) splitCell(lab []int, c int32, desc bool, ncells int) int {
	cs := st.cStart[c]
	ce := st.endAt[cs]
	h := st.hits[c]
	st.hits[c] = 0
	all := h > 0
	if !all {
		h = -h
	}
	ts, te := ce-h, ce
	if desc {
		ts, te = cs, cs+h
	}
	// Touched vertices with one count pair form one fragment and need no
	// sort: the common case of a sparse graph, whose counts are mostly 1.
	sorted := !st.uniform(lab[ts:te])
	if all && !sorted {
		return ncells
	}
	if sorted {
		st.sortByCnt(lab[ts:te], desc)
		for i := ts; i < te; i++ {
			st.pos[lab[i]] = i
		}
	}
	// p is the cell's ancestor at the start of this pass. The first split
	// of a pass-start cell records it with its pass-start extent; cells
	// created in this pass inherit their recorded parent.
	p := cs
	if st.inPass.test(c) {
		p = st.fragParent[c]
	} else {
		st.markInPass(c, p)
		st.splitParents = append(st.splitParents, p)
		st.passEnd[p] = ce
	}
	// The untouched vertices keep c; with none, the first fragment does.
	switch {
	case all:
	case desc:
		st.cStart[c], st.endAt[te] = te, ce
		st.noteSingleton(lab, te, ce)
	default:
		st.endAt[cs] = ts
		st.noteSingleton(lab, cs, ts)
	}
	for fs := ts; fs < te; {
		fe := te
		if sorted {
			fe = fs + 1
			for fe < te && st.sameCnt(lab[fe-1], lab[fe]) {
				fe++
			}
		}
		st.endAt[fs] = fe
		switch {
		case all:
			st.cStart[c] = fs
			st.noteSingleton(lab, fs, fe)
			all = false
		case fe-fs == 1:
			// A singleton cell needs no id: nothing splits it.
			st.cellOf[lab[fs]] = -1
			ncells++
		default:
			id := int32(ncells)
			ncells++
			st.cStart[id] = fs
			for _, v := range lab[fs:fe] {
				st.cellOf[v] = id
			}
			st.markInPass(id, p)
		}
		fs = fe
	}
	return ncells
}

// noteSingleton drops the id of the cell lab[s:e] if it holds one vertex.
func (st *canonState) noteSingleton(lab []int, s, e int32) {
	if e-s == 1 {
		st.cellOf[lab[s]] = -1
	}
}

// markInPass records that cell c descends from the pass-start cell at
// position p.
func (st *canonState) markInPass(c, p int32) {
	st.inPass.set(c)
	st.fragParent[c] = p
	st.passCells = append(st.passCells, c)
}

func (st *canonState) sameCnt(a, b int) bool {
	return st.cntOut[a] == st.cntOut[b] && st.cntIn[a] == st.cntIn[b]
}

// uniform reports whether every vertex of seg has the same count pair.
func (st *canonState) uniform(seg []int) bool {
	for _, v := range seg[1:] {
		if !st.sameCnt(v, seg[0]) {
			return false
		}
	}
	return true
}

// individualize splits the vertex at position i of cell k out of its cell
// as a preceding singleton, in place, keeping the order of the rest.
func (lv *level) individualize(k, i int) {
	s := int(lv.cellStart[k])
	v := lv.lab[i]
	copy(lv.lab[s+1:i+1], lv.lab[s:i])
	lv.lab[s] = v
	// Insert a boundary after position s.
	lv.cellStart = append(lv.cellStart, 0)
	copy(lv.cellStart[k+2:], lv.cellStart[k+1:])
	lv.cellStart[k+1] = int32(s + 1)
	lv.ncells++
}
