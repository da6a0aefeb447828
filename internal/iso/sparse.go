package iso

import (
	"bytes"
	"context"
	"sort"

	"repro/internal/graph"
	"repro/internal/perm"
)

// Sparse is a vertex-colored directed multigraph in compressed-sparse-row
// form — the O(n+m) counterpart of Colored for graphs too large to hold an
// n×n multiplicity matrix or an n+n² word. The sparse engine
// (CanonicalSparse, SparseOrbits) shares the refinement and search machinery
// with the dense engine but serializes the O(n+m) varint word described in
// DESIGN.md §13. Sparse words and dense words live in different code spaces:
// compare sparse words with sparse words only. Within the sparse engine the
// guarantee is the same: equal canonical words exactly characterize
// color-isomorphism.
type Sparse struct {
	// N is the vertex count, Color the per-vertex colors (same conventions
	// as Colored.Color).
	N     int
	Color []int

	g *csr
}

// SparseFromGraph builds the symmetric Sparse form of an undirected
// multigraph in O(n + m): per-vertex neighbor lists are sorted and run-
// length encoded into multiplicities (a loop contributes 2, matching
// graph.AdjacencyMatrix and FromGraph). colors may be nil (all zero) or
// have length g.N().
func SparseFromGraph(gr *graph.Graph, colors []int) *Sparse {
	n := gr.N()
	sp := &Sparse{N: n, Color: make([]int, n)}
	if colors != nil {
		if len(colors) != n {
			panic("iso: color slice length mismatch")
		}
		copy(sp.Color, colors)
	}
	c := &csr{outStart: make([]int32, n+1)}
	var nbuf []int32
	for v := 0; v < n; v++ {
		hs := gr.Ports(v)
		nbuf = nbuf[:0]
		for _, h := range hs {
			nbuf = append(nbuf, int32(h.To))
		}
		sortInt32s(nbuf)
		for i := 0; i < len(nbuf); {
			j := i
			for j < len(nbuf) && nbuf[j] == nbuf[i] {
				j++
			}
			c.outDst = append(c.outDst, nbuf[i])
			c.outMult = append(c.outMult, int32(j-i))
			i = j
		}
		c.outStart[v+1] = int32(len(c.outDst))
	}
	// Undirected symmetry: the multiplicity matrix is symmetric, so the
	// in-CSR equals the out-CSR and can share its arrays.
	c.inStart, c.inDst, c.inMult = c.outStart, c.outDst, c.outMult
	sp.g = c
	return sp
}

// SparseFromColored converts a dense Colored (primarily for differential
// tests between the two engines).
func SparseFromColored(c *Colored) *Sparse {
	return &Sparse{N: c.N, Color: append([]int(nil), c.Color...), g: buildCSR(c)}
}

// SparseFromArcs builds a Sparse digraph on n vertices from (u, v) arc
// pairs; repeated pairs accumulate multiplicity. colors may be nil.
func SparseFromArcs(n int, arcs [][2]int, colors []int) *Sparse {
	sp := &Sparse{N: n, Color: make([]int, n)}
	if colors != nil {
		if len(colors) != n {
			panic("iso: color slice length mismatch")
		}
		copy(sp.Color, colors)
	}
	as := append([][2]int(nil), arcs...)
	c := &csr{outStart: make([]int32, n+1), inStart: make([]int32, n+1)}
	sort.Slice(as, func(i, j int) bool {
		if as[i][0] != as[j][0] {
			return as[i][0] < as[j][0]
		}
		return as[i][1] < as[j][1]
	})
	src := 0
	for i := 0; i < len(as); {
		j := i
		for j < len(as) && as[j] == as[i] {
			j++
		}
		for src < as[i][0] {
			src++
			c.outStart[src] = int32(len(c.outDst))
		}
		c.outDst = append(c.outDst, int32(as[i][1]))
		c.outMult = append(c.outMult, int32(j-i))
		i = j
	}
	for src < n {
		src++
		c.outStart[src] = int32(len(c.outDst))
	}
	sort.Slice(as, func(i, j int) bool {
		if as[i][1] != as[j][1] {
			return as[i][1] < as[j][1]
		}
		return as[i][0] < as[j][0]
	})
	dst := 0
	for i := 0; i < len(as); {
		j := i
		for j < len(as) && as[j] == as[i] {
			j++
		}
		for dst < as[i][1] {
			dst++
			c.inStart[dst] = int32(len(c.inDst))
		}
		c.inDst = append(c.inDst, int32(as[i][0]))
		c.inMult = append(c.inMult, int32(j-i))
		i = j
	}
	for dst < n {
		dst++
		c.inStart[dst] = int32(len(c.inDst))
	}
	sp.g = c
	return sp
}

// Recolor returns a view of sp with new colors sharing the (immutable)
// adjacency structure — an O(n) operation used by individualization-based
// orbit completion.
func (sp *Sparse) Recolor(colors []int) *Sparse {
	if len(colors) != sp.N {
		panic("iso: color slice length mismatch")
	}
	return &Sparse{N: sp.N, Color: append([]int(nil), colors...), g: sp.g}
}

// csrOutMult returns the multiplicity of arc v -> w (rows are sorted by
// destination, so one binary search).
func csrOutMult(g *csr, v int, w int32) int32 {
	lo, hi := g.outStart[v], g.outStart[v+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if g.outDst[mid] < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < g.outStart[v+1] && g.outDst[lo] == w {
		return g.outMult[lo]
	}
	return 0
}

// csrIsAutomorphism reports whether p is a color-preserving automorphism of
// the graph (colors, g) in O(Σ deg · log deg). Checking every out-arc maps
// with equal multiplicity, plus per-row entry-count equality, pins the whole
// arc multiset (p is a bijection), so in-arcs need no separate pass.
func csrIsAutomorphism(g *csr, colors []int, p perm.Perm) bool {
	n := len(colors)
	if len(p) != n {
		return false
	}
	for v := 0; v < n; v++ {
		pv := p[v]
		if colors[pv] != colors[v] {
			return false
		}
		if g.outStart[v+1]-g.outStart[v] != g.outStart[pv+1]-g.outStart[pv] {
			return false
		}
		for a := g.outStart[v]; a < g.outStart[v+1]; a++ {
			if csrOutMult(g, pv, int32(p[g.outDst[a]])) != g.outMult[a] {
				return false
			}
		}
	}
	return true
}

// IsAutomorphism reports whether p is a color-preserving automorphism of sp.
func (sp *Sparse) IsAutomorphism(p perm.Perm) bool {
	return csrIsAutomorphism(sp.g, sp.Color, p)
}

// OutMult returns the multiplicity of arc u -> v (0 when absent), one
// binary search over u's sorted out-row.
func (sp *Sparse) OutMult(u, v int) int {
	return int(csrOutMult(sp.g, u, int32(v)))
}

// SparseEquitablePartition returns the coarsest equitable refinement of
// sp's color partition, in canonical cell order — the sparse counterpart of
// EquitablePartition, O(n + m log n) per call.
func SparseEquitablePartition(sp *Sparse) [][]int {
	if sp.N == 0 {
		return nil
	}
	st := newSparseCanonState(sp)
	lv := st.level(0)
	st.initialPartition(lv)
	st.refine(lv)
	out := make([][]int, 0, lv.ncells)
	for k := 0; k < lv.ncells; k++ {
		out = append(out, append([]int(nil), lv.lab[lv.cellStart[k]:lv.cellStart[k+1]]...))
	}
	return out
}

// CanonicalSparse computes the canonical form of a Sparse. The sparse word
// is a different (O(n+m) varint) serialization than the dense engine's —
// words are comparable only within one engine — but carries the same
// guarantee: equal words exactly characterize color-isomorphism.
func CanonicalSparse(sp *Sparse) *Result {
	r, err := CanonicalSparseCtx(context.Background(), sp)
	if err != nil {
		panic("iso: unreachable: uncancelable sparse search returned " + err.Error())
	}
	return r
}

// CanonicalSparseCtx is CanonicalSparse under a context, canceled exactly
// like CanonicalCtx.
func CanonicalSparseCtx(ctx context.Context, sp *Sparse) (*Result, error) {
	if sp.N == 0 {
		return &Result{Perm: perm.Perm{}, Word: []byte{}}, nil
	}
	return newSparseCanonState(sp).run(ctx)
}

// SparseOrbits returns the exact orbits of the color-preserving
// automorphism group of sp (each sorted ascending, ordered by smallest
// element), running one canonical search for generators and completing them
// with individualization transporter tests. Every search it runs is canceled
// by ctx, like CanonicalSparseCtx.
func SparseOrbits(ctx context.Context, sp *Sparse) ([][]int, error) {
	r, err := CanonicalSparseCtx(ctx, sp)
	if err != nil {
		return nil, err
	}
	return SparseOrbitsWith(ctx, sp, r)
}

// SparseOrbitsWith completes the orbits of sp from an existing canonical
// result (avoiding a second search when the caller already ran one).
//
// The search's generators are not guaranteed to generate the full orbit
// partition (orbit pruning can suppress leaves), so candidate merges are
// verified per equitable cell: for two unmerged vertices u, v of one cell,
// individualize-and-refine each; if both refinements are discrete the only
// possible automorphism mapping u to v is the positional map between the
// two labelings (refinement is canonical, so any such automorphism maps one
// refined partition onto the other cell-by-cell) — verify it and either
// merge or conclude u, v lie in distinct orbits. If neither is discrete,
// fall back to the canonical-word transporter on recolored copies, exactly
// like the dense automorphismGensComplete; those searches run under ctx.
// Mixed discreteness already proves distinct orbits.
func SparseOrbitsWith(ctx context.Context, sp *Sparse, r *Result) ([][]int, error) {
	n := sp.N
	uf := make([]int32, n)
	for i := range uf {
		uf[i] = int32(i)
	}
	for _, a := range r.AutoGens {
		for i, ai := range a {
			ufUnion(uf, int32(i), int32(ai))
		}
	}
	st := newSparseCanonState(sp)
	lv := st.level(0)
	st.initialPartition(lv)
	st.refine(lv)

	fresh := 0
	for _, col := range sp.Color {
		if col >= fresh {
			fresh = col + 1
		}
	}
	scratch := st.level(1)
	var labU, labV []int
	for k := 0; k < lv.ncells; k++ {
		cs, ce := int(lv.cellStart[k]), int(lv.cellStart[k+1])
		if ce-cs < 2 {
			continue
		}
		// Distinct union-find roots among the cell's members, in lab order.
		roots := make([]int, 0, ce-cs)
		seen := make(map[int32]bool, ce-cs)
		for i := cs; i < ce; i++ {
			rt := ufFind(uf, int32(lv.lab[i]))
			if !seen[rt] {
				seen[rt] = true
				roots = append(roots, lv.lab[i])
			}
		}
		for ui := 0; ui < len(roots); ui++ {
			u := roots[ui]
			var uDiscrete bool
			var uPrepared bool
			var ru *Result
			for vi := ui + 1; vi < len(roots); vi++ {
				v := roots[vi]
				if ufFind(uf, int32(u)) == ufFind(uf, int32(v)) {
					continue
				}
				if !uPrepared {
					uPrepared = true
					labU, uDiscrete = st.individualizedLabeling(lv, scratch, k, u, labU)
				}
				var vDiscrete bool
				labV, vDiscrete = st.individualizedLabeling(lv, scratch, k, v, labV)
				if uDiscrete != vDiscrete {
					continue // provably distinct orbits
				}
				if uDiscrete {
					// The positional map is the only candidate transporter.
					a := make(perm.Perm, n)
					for i := range labU {
						a[labU[i]] = labV[i]
					}
					if csrIsAutomorphism(sp.g, sp.Color, a) {
						for i, ai := range a {
							ufUnion(uf, int32(i), int32(ai))
						}
					}
					continue
				}
				// Both non-discrete: canonical-word transporter on recolored
				// copies (the expensive, rarely taken path).
				if ru == nil {
					spu := sp.Recolor(sp.Color)
					spu.Color[u] = fresh
					var err error
					ru, err = CanonicalSparseCtx(ctx, spu)
					if err != nil {
						return nil, err
					}
				}
				spv := sp.Recolor(sp.Color)
				spv.Color[v] = fresh
				rv, err := CanonicalSparseCtx(ctx, spv)
				if err != nil {
					return nil, err
				}
				if !bytes.Equal(ru.Word, rv.Word) {
					continue
				}
				a := ru.Perm.Compose(rv.Perm.Inverse())
				if csrIsAutomorphism(sp.g, sp.Color, a) {
					for i, ai := range a {
						ufUnion(uf, int32(i), int32(ai))
					}
				}
			}
		}
	}
	return orbitsFromUF(uf), nil
}

// individualizedLabeling copies the equitable partition lv into scratch,
// individualizes v (in cell k) and refines; it reports whether the result
// is discrete and, if so, fills dst (reused across calls) with the
// labeling. Returns dst and the discreteness flag.
func (st *canonState) individualizedLabeling(lv, scratch *level, k, v int, dst []int) ([]int, bool) {
	scratch.copyFrom(lv)
	scratch.individualize(k, v)
	st.refineSingle(scratch, k)
	if !scratch.discrete(st.n) {
		return dst, false
	}
	dst = append(dst[:0], scratch.lab...)
	return dst, true
}

// orbitsFromUF groups vertices by union-find root, each orbit sorted
// ascending, orbits ordered by smallest element.
func orbitsFromUF(uf []int32) [][]int {
	n := len(uf)
	byRoot := make(map[int32][]int, n)
	order := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		rt := ufFind(uf, int32(v))
		if _, ok := byRoot[rt]; !ok {
			order = append(order, rt)
		}
		byRoot[rt] = append(byRoot[rt], v)
	}
	out := make([][]int, 0, len(order))
	for _, rt := range order {
		out = append(out, byRoot[rt])
	}
	return out
}
