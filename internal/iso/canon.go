package iso

import (
	"context"
	"sync"

	"repro/internal/perm"
)

// canonState drives one canonical labeling search of a Sparse, serializing
// the O(n+m) varint word of DESIGN.md §13. All scratch (partition levels,
// refinement worklists, the path's word prefix, orbit union-finds) is owned
// here and reused across the whole backtracking tree, and states are
// recycled through statePool, resized on reuse, so a warm search allocates
// only its Result: the canonical Perm, the Word and AutoGens are handed to
// it and never stay in the pool.
type canonState struct {
	colors []int // the Sparse's vertex colors
	g      *csr  // the Sparse's arcs
	n      int

	// Search outcome.
	best     []byte      // minimum leaf word so far (full serialization)
	bpermInv []int       // position -> vertex of the ordering that produced best
	autos    []perm.Perm // discovered automorphisms (see leaf handling)
	bestGen  int         // bumped every time best is replaced

	// prefix is the serialized word of the current path, valid up to the
	// bytes determined by the path's leading singleton cells. Its color
	// section (the first n varints) is constant across the entire tree:
	// initial cells are monochromatic and occupy fixed position ranges that
	// refinement and individualization only subdivide.
	prefix []byte

	// base is the stack of individualized vertices on the current path;
	// the orbit pruning at each node is relative to it.
	base []int

	levels []*level

	// done, when non-nil, is a cancellation signal (a context's Done
	// channel) polled once per search node; stopped records that it fired
	// and the search result is void.
	done    <-chan struct{}
	stopped bool

	// Search-shape counters, flushed to the package stats once per search
	// (plain ints: each state runs on one goroutine).
	nodes        int
	leaves       int
	orbitPrunes  int
	prefixPrunes int

	// Worklist-refinement scratch (refine.go). Cells are identified by
	// start position during a refine: cellEnd[s] ends the cell starting at
	// s, cellOf[v] is the start of v's cell, cnt* accumulate one splitter
	// fragment's arc counts, and the remaining slices/bitsets carry the
	// per-pass key and split-parent bookkeeping.
	cellOf       []int32
	cellEnd      []int32
	cntOut       []int32
	cntIn        []int32
	touched      []int32
	affCells     []int32
	fragBounds   []int32
	fragList     []int32
	fragParent   []int32
	splitParents []int32
	passEnd      []int32
	keysA        []int32
	keysB        []int32
	cellMark     bitset
	isFrag       bitset
	parentMark   bitset
	sortTmp      []int
	colorCounts  []int32

	// Sparse-word scratch: posOf[v] is v's position when v is placed on the
	// current determined prefix (-1 otherwise); blk* accumulate one word
	// block's per-position multiplicities.
	posOf  []int32
	blkOut []int32
	blkIn  []int32
	blkIdx []int32
}

// statePool recycles search states between canonical searches: an
// analysis runs its whole-graph search, then the Cayley test's and, under
// the hair order, one search per class, and allocating every search's
// scratch afresh cost about an eighth of the CPU of a stream of small cold
// analyses, plus the GC work it caused (DESIGN.md §8).
var statePool = sync.Pool{New: func() any { return new(canonState) }}

// sparseState returns a pooled state prepared for a search of sp.
func sparseState(sp *Sparse) *canonState {
	st := statePool.Get().(*canonState)
	st.colors, st.g = sp.Color, sp.g
	st.reset(sp.N)
	st.posOf = zeroed(st.posOf, sp.N)
	for i := range st.posOf {
		st.posOf[i] = -1
	}
	st.blkOut = zeroed(st.blkOut, sp.N)
	st.blkIn = zeroed(st.blkIn, sp.N)
	st.blkIdx = zeroed(st.blkIdx, sp.N)[:0]
	return st
}

// reset sizes the scratch for an n-vertex search, reusing every buffer that
// is large enough, and clears the previous search's outcome and counters.
// Levels are resized lazily, by level.
func (st *canonState) reset(n int) {
	st.n = n
	st.prefix = st.prefix[:0]
	st.best = st.best[:0]
	st.bpermInv = zeroed(st.bpermInv, n)
	st.bestGen = 0
	st.base = zeroed(st.base, n)[:0]
	st.stopped = false
	st.nodes, st.leaves, st.orbitPrunes, st.prefixPrunes = 0, 0, 0, 0
	st.cellOf = zeroed(st.cellOf, n)
	st.cellEnd = zeroed(st.cellEnd, n+1)
	st.cntOut = zeroed(st.cntOut, n)
	st.cntIn = zeroed(st.cntIn, n)
	st.touched = zeroed(st.touched, n)[:0]
	st.affCells = zeroed(st.affCells, n)[:0]
	st.fragBounds = zeroed(st.fragBounds, n)[:0]
	st.fragList = zeroed(st.fragList, n)[:0]
	st.fragParent = zeroed(st.fragParent, n)
	st.splitParents = zeroed(st.splitParents, n)[:0]
	st.passEnd = zeroed(st.passEnd, n+1)
	st.keysA = zeroed(st.keysA, 2*n)[:0]
	st.keysB = zeroed(st.keysB, 2*n)[:0]
	words := (n + 64) / 64 // n+1 bits
	st.cellMark = zeroed(st.cellMark, words)
	st.isFrag = zeroed(st.isFrag, words)
	st.parentMark = zeroed(st.parentMark, words)
	st.sortTmp = zeroed(st.sortTmp, n)
}

// release returns st to statePool. It first drops every reference to the
// caller's graph and to the automorphisms a Result may own, so the pool
// retains neither.
func (st *canonState) release() {
	st.colors, st.g, st.done, st.autos = nil, nil, nil, nil
	statePool.Put(st)
}

// zeroed returns a zeroed length-n slice, reusing s's backing array when it
// is large enough: make([]T, n) without the allocation on a warm state.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// level returns the pooled partition state for the given search depth,
// allocating it on first use and resizing it when the state last searched
// a graph of another order.
func (st *canonState) level(depth int) *level {
	for len(st.levels) <= depth {
		st.levels = append(st.levels, new(level))
	}
	lv := st.levels[depth]
	if len(lv.lab) != st.n {
		lv.lab = zeroed(lv.lab, st.n)
		lv.cellStart = zeroed(lv.cellStart, st.n+1)[:0]
		lv.uf = zeroed(lv.uf, st.n)
		lv.tried = zeroed(lv.tried, st.n)[:0]
		lv.ufGen = -1
	}
	return lv
}

// halted reports whether this state must stop searching because its
// cancellation signal fired.
func (st *canonState) halted() bool {
	if st.stopped {
		return true
	}
	if st.done != nil {
		select {
		case <-st.done:
			st.stopped = true
			return true
		default:
		}
	}
	return false
}

// run searches the whole tree under ctx and returns the canonical result,
// or ctx.Err() when ctx fired mid-search — never a word from a partial
// search, which would not be canonical. Either way the state goes back to
// statePool; the Result owns its Perm, Word and AutoGens outright.
func (st *canonState) run(ctx context.Context) (*Result, error) {
	st.done = ctx.Done()
	lv := st.level(0)
	st.initialPartition(lv)
	st.prepareRootPrefix(lv)
	st.search(0, 0, -1, -1)
	st.flushStats(!st.stopped)
	if st.stopped {
		st.release()
		return nil, ctx.Err()
	}
	r := &Result{Perm: make(perm.Perm, st.n), Word: st.best, AutoGens: st.autos}
	for pos, v := range st.bpermInv {
		r.Perm[v] = pos
	}
	st.best = nil
	st.release()
	return r, nil
}

// prepareRootPrefix emits the constant color section of the word.
func (st *canonState) prepareRootPrefix(lv *level) {
	st.prefix = st.prefix[:0]
	for _, v := range lv.lab {
		st.prefix = appendUvarint(st.prefix, uint64(st.colors[v]))
	}
}

// search explores the subtree rooted at level depth, whose partition has
// been individualized but not yet refined. fixed is the number of leading
// singleton cells of the parent (whose word bytes are already in prefix).
// cmp is the relation of the path's determined word bytes to best:
// -1 strictly smaller (or best unset), 0 equal so far. Subtrees whose
// determined bytes exceed best are pruned before reaching a leaf. hint >= 0
// names the cell just individualized, seeding the worklist refinement with
// only that singleton (see refineSingle); the root passes -1.
func (st *canonState) search(depth, fixed, cmp, hint int) {
	if st.halted() {
		return
	}
	st.nodes++
	lv := st.levels[depth]
	if hint >= 0 {
		st.refineSingle(lv, hint)
	} else {
		st.refine(lv)
	}

	// Extend the determined prefix over the new leading singleton cells
	// and compare incrementally against best.
	pl0 := len(st.prefix)
	k := fixed
	for k < lv.ncells && lv.cellStart[k+1]-lv.cellStart[k] == 1 {
		k++
	}
	for i := fixed; i < k; i++ {
		st.posOf[lv.lab[i]] = int32(i)
	}
	for i := fixed; i < k; i++ {
		st.appendSparseBlock(i, lv.lab[i])
	}
	if cmp == 0 {
		cmp = st.compareNewBytes(pl0)
	}
	if cmp > 0 {
		st.prefixPrunes++
		st.retreat(lv, fixed, k, pl0)
		return // partial word already exceeds best: prune
	}

	if lv.discrete(st.n) {
		st.leaf(lv, cmp)
		st.retreat(lv, fixed, k, pl0)
		return
	}

	// Branch on the first smallest non-singleton cell.
	target, targetLen := -1, st.n+1
	for t := 0; t < lv.ncells; t++ {
		if l := int(lv.cellStart[t+1] - lv.cellStart[t]); l > 1 && l < targetLen {
			target, targetLen = t, l
		}
	}
	s, e := int(lv.cellStart[target]), int(lv.cellStart[target+1])
	lv.tried = lv.tried[:0]
	for ci := s; ci < e; ci++ {
		v := lv.lab[ci]
		// Orbit pruning: vertices of the cell in one orbit of the
		// base-pointwise stabilizer of the discovered automorphism group
		// lead to identical subtrees; explore one per orbit.
		if st.inOrbitOfTried(lv, v) {
			st.orbitPrunes++
			continue
		}
		lv.tried = append(lv.tried, v)
		child := st.level(depth + 1)
		child.copyFrom(lv)
		child.individualize(target, v)
		st.base = append(st.base, v)
		gen := st.bestGen
		st.search(depth+1, k, cmp, target)
		st.base = st.base[:len(st.base)-1]
		if st.halted() {
			break
		}
		if st.bestGen != gen {
			// best was replaced by a leaf of the subtree just explored, so
			// this node's determined prefix is a prefix of (hence equal to)
			// the new best's.
			cmp = 0
		}
	}
	st.retreat(lv, fixed, k, pl0)
}

// retreat undoes a node's prefix extension and its position placements on
// the way back up.
func (st *canonState) retreat(lv *level, fixed, k, pl0 int) {
	st.prefix = st.prefix[:pl0]
	for i := fixed; i < k; i++ {
		st.posOf[lv.lab[i]] = -1
	}
}

// compareNewBytes compares the prefix bytes appended by the current node
// (prefix[pl0:]) against best. Words vary in length; a candidate that runs
// past best's end with all bytes equal is strictly greater (best is a
// proper prefix of it), matching bytes.Compare.
func (st *canonState) compareNewBytes(pl0 int) int {
	p, b := st.prefix, st.best
	for i := pl0; i < len(p); i++ {
		if i >= len(b) {
			return 1
		}
		if p[i] != b[i] {
			if p[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// appendSparseBlock appends position i's block of the sparse word: the
// varint count of placed positions j <= i adjacent to v_i, then for each
// such j ascending the triple (j, mult v_i->v_j, mult v_j->v_i) as varints.
// Together with the color section this reconstructs the adjacency among the
// placed prefix, so the full word is an injective serialization, and block
// i depends only on positions 0..i — the property incremental prefix
// pruning needs.
func (st *canonState) appendSparseBlock(i, vi int) {
	g := st.g
	idx := st.blkIdx[:0]
	for a := g.outStart[vi]; a < g.outStart[vi+1]; a++ {
		j := st.posOf[g.outDst[a]]
		if j >= 0 && int(j) <= i {
			if st.blkOut[j] == 0 && st.blkIn[j] == 0 {
				idx = append(idx, j)
			}
			st.blkOut[j] += g.outMult[a]
		}
	}
	for a := g.inStart[vi]; a < g.inStart[vi+1]; a++ {
		j := st.posOf[g.inDst[a]]
		if j >= 0 && int(j) <= i {
			if st.blkOut[j] == 0 && st.blkIn[j] == 0 {
				idx = append(idx, j)
			}
			st.blkIn[j] += g.inMult[a]
		}
	}
	sortInt32s(idx)
	st.prefix = appendUvarint(st.prefix, uint64(len(idx)))
	for _, j := range idx {
		st.prefix = appendUvarint(st.prefix, uint64(j))
		st.prefix = appendUvarint(st.prefix, uint64(st.blkOut[j]))
		st.prefix = appendUvarint(st.prefix, uint64(st.blkIn[j]))
		st.blkOut[j], st.blkIn[j] = 0, 0
	}
	st.blkIdx = idx[:0]
}

// leaf handles a discrete partition: prefix now holds the full leaf word.
func (st *canonState) leaf(lv *level, cmp int) {
	st.leaves++
	if cmp == 0 && len(st.prefix) != len(st.best) {
		// Words vary in length: all determined bytes equal but the
		// candidate ended first means it is strictly smaller (the longer
		// case was pruned during compareNewBytes).
		cmp = -1
	}
	switch cmp {
	case -1:
		// Strictly smaller than best at some determined byte (or best
		// unset): install as the new best.
		st.best = append(st.best[:0], st.prefix...)
		copy(st.bpermInv, lv.lab)
		st.bestGen++
	case 0:
		// Equal to best: lab and best's ordering induce the same
		// canonical graph, so mapping each vertex to the vertex best
		// placed at its position is an automorphism of the input.
		a := make(perm.Perm, st.n)
		for pos, v := range lv.lab {
			a[v] = st.bpermInv[pos]
		}
		if !a.IsIdentity() && csrIsAutomorphism(st.g, st.colors, a) {
			st.autos = append(st.autos, a)
		}
	}
}

// inOrbitOfTried reports whether some already-tried branch vertex maps to v
// under the subgroup of discovered automorphisms fixing the current base
// pointwise. The orbit partition is a union-find over the stabilizer's
// generators, cached on the level and rebuilt only when new automorphisms
// have been discovered since — no stabilizer recomputation and no
// permutation inversions in the loop (inverses are not needed at all:
// union(i, a[i]) over generators already yields the generated group's
// orbits).
func (st *canonState) inOrbitOfTried(lv *level, v int) bool {
	if len(lv.tried) == 0 || len(st.autos) == 0 {
		return false
	}
	if lv.ufGen != len(st.autos) {
		for i := range lv.uf {
			lv.uf[i] = int32(i)
		}
		for _, a := range st.autos {
			fixesBase := true
			for _, b := range st.base {
				if a[b] != b {
					fixesBase = false
					break
				}
			}
			if !fixesBase {
				continue
			}
			for i, ai := range a {
				ufUnion(lv.uf, int32(i), int32(ai))
			}
		}
		lv.ufGen = len(st.autos)
	}
	r := ufFind(lv.uf, int32(v))
	for _, t := range lv.tried {
		if ufFind(lv.uf, int32(t)) == r {
			return true
		}
	}
	return false
}

func ufFind(uf []int32, x int32) int32 {
	for uf[x] != x {
		uf[x] = uf[uf[x]]
		x = uf[x]
	}
	return x
}

func ufUnion(uf []int32, a, b int32) {
	ra, rb := ufFind(uf, a), ufFind(uf, b)
	if ra != rb {
		uf[ra] = rb
	}
}
