package iso

import (
	"context"
	"slices"

	"repro/internal/graph"
	"repro/internal/perm"
)

// Sparse is a vertex-colored directed multigraph in compressed-sparse-row
// form: O(n+m) memory, where the reference engine's Colored holds an n×n
// multiplicity matrix. CanonicalSparse serializes it as the O(n+m) varint
// word described in DESIGN.md §13: equal canonical words exactly
// characterize color-isomorphism.
type Sparse struct {
	// N is the vertex count, Color the per-vertex colors: small
	// non-negative integers whose values are meaningful across graphs
	// (e.g. 0 = white, 1 = black/home-base), so two Sparse values are
	// isomorphic only under color-preserving bijections.
	N     int
	Color []int

	g *csr
}

// newSparse returns a Sparse on n vertices with a copy of colors (nil: all
// zero) and no arcs yet.
func newSparse(n int, colors []int) *Sparse {
	sp := &Sparse{N: n, Color: make([]int, n)}
	if colors != nil {
		if len(colors) != n {
			panic("iso: color slice length mismatch")
		}
		copy(sp.Color, colors)
	}
	return sp
}

// SparseFromGraph builds the symmetric Sparse form of an undirected
// multigraph in O(n + m): per-vertex neighbor lists are sorted and run-
// length encoded into multiplicities (a loop contributes 2, one per port).
// colors may be nil (all zero) or have length g.N().
func SparseFromGraph(gr *graph.Graph, colors []int) *Sparse {
	n := gr.N()
	sp := newSparse(n, colors)
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
	c.sym = true
	sp.g = c
	return sp
}

// SparseFromArcs builds a Sparse digraph on n vertices from (u, v) arc
// pairs in O(n + m); repeated pairs accumulate multiplicity, and a pair
// (x, x) is one loop arc. colors may be nil (all zero) or have length n.
// Two stable counting sorts put every row in neighbor order: the arcs,
// bucketed by source, are redistributed by target (sources ascending),
// then back by source (targets ascending), and each row is run-length
// encoded in place.
func SparseFromArcs(n int, arcs [][2]int, colors []int) *Sparse {
	sp := newSparse(n, colors)
	m := len(arcs)
	c := &csr{outStart: make([]int32, n+1), inStart: make([]int32, n+1)}
	for _, a := range arcs {
		c.outStart[a[0]+1]++
		c.inStart[a[1]+1]++
	}
	for v := 0; v < n; v++ {
		c.outStart[v+1] += c.outStart[v]
		c.inStart[v+1] += c.inStart[v]
	}
	out, in := make([]int32, m), make([]int32, m)
	// next[v] is the write cursor of v's bucket.
	next := make([]int32, n)
	copy(next, c.outStart)
	for _, a := range arcs {
		out[next[a[0]]] = int32(a[1])
		next[a[0]]++
	}
	copy(next, c.inStart)
	for u := 0; u < n; u++ {
		for _, v := range out[c.outStart[u]:c.outStart[u+1]] {
			in[next[v]] = int32(u)
			next[v]++
		}
	}
	copy(next, c.outStart)
	for v := 0; v < n; v++ {
		for _, u := range in[c.inStart[v]:c.inStart[v+1]] {
			out[next[u]] = int32(v)
			next[u]++
		}
	}
	c.outDst, c.outMult = runLengths(c.outStart, out)
	c.inDst, c.inMult = runLengths(c.inStart, in)
	sp.g = c
	return sp
}

// runLengths collapses each sorted row of the bucketed list nbr (row v is
// nbr[start[v]:start[v+1]]) into distinct neighbors and their counts, in
// place, rewriting start to the collapsed rows.
func runLengths(start, nbr []int32) (dst, mult []int32) {
	mult = make([]int32, len(nbr))
	w, s := int32(0), start[0]
	for v := 1; v < len(start); v++ {
		e := start[v]
		for i := s; i < e; i++ {
			if i > s && nbr[i] == nbr[i-1] {
				mult[w-1]++
				continue
			}
			nbr[w], mult[w] = nbr[i], 1
			w++
		}
		start[v], s = w, e
	}
	return nbr[:w], mult[:w]
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

// SparseEquitablePartition returns the coarsest equitable refinement of
// sp's color partition: the cells, in canonical (isomorphism-invariant)
// order, of the partition in which any two vertices of a cell have equal
// arc multiplicity into and out of every cell, each cell's vertices
// ascending. This is the refinement step of the canonical search,
// O(n + m log n) per call, exposed for benchmarks and diagnostics.
func SparseEquitablePartition(sp *Sparse) [][]int {
	if sp.N == 0 {
		return nil
	}
	st := sparseState(sp)
	lv := st.level(0)
	st.initialPartition(lv)
	st.refine(lv)
	out := make([][]int, 0, lv.ncells)
	for k := 0; k < lv.ncells; k++ {
		cell := append([]int(nil), lv.lab[lv.cellStart[k]:lv.cellStart[k+1]]...)
		slices.Sort(cell)
		out = append(out, cell)
	}
	st.release()
	return out
}

// CanonicalSparse computes a canonical form of sp: the minimum sparse word
// (DESIGN.md §13) over the refinement-consistent vertex orderings explored
// by the search. Words are equal iff the graphs are color-isomorphic, which
// is the property Lemma 3.1's total order needs (see the package comment).
//
// The result's AutoGens, the automorphisms the search records, generate the
// whole color-preserving automorphism group, so perm.OrbitsOf of them is
// the exact orbit partition. This is McKay's argument for nauty with the
// first minimum-word leaf in place of the first leaf. Let G_i fix the first
// i base vertices of that leaf's path pointwise, and let v be the path's
// child at depth i. A sibling w that G_i maps v onto cannot be searched
// before v: its subtree holds a minimum-word leaf, which would then be found
// first. So w is searched after best has its final value, and either
// reaches a leaf equal to best, which records an automorphism of G_i taking
// v to w, or is orbit-pruned by recorded automorphisms that fix the base.
// Either way the recorded elements of G_i are transitive on v's G_i-orbit,
// and induction up from the leaf, whose stabilizer is trivial, gives all of
// Aut(sp). TestAutomorphismCounts checks the group order of the generators
// on families with known |Aut|, and FuzzCanonical against a brute-force
// count.
func CanonicalSparse(sp *Sparse) *Result {
	r, err := CanonicalSparseCtx(context.Background(), sp)
	if err != nil {
		panic("iso: unreachable: uncancelable sparse search returned " + err.Error())
	}
	return r
}

// CanonicalSparseCtx is CanonicalSparse under a context: the search polls
// ctx once per search node and returns ctx.Err() when it fires. This is the
// path by which a canceled /v1/analyze request stops its canonical
// searches.
func CanonicalSparseCtx(ctx context.Context, sp *Sparse) (*Result, error) {
	if sp.N == 0 {
		return &Result{Perm: perm.Perm{}, Word: []byte{}}, nil
	}
	if referenceEngine.Load() {
		// The benchmark-only reference switch: the frozen engine runs on
		// the dense form, uncancelable, and returns a dense word.
		return referenceCanonical(sp.dense()), nil
	}
	return sparseState(sp).run(ctx)
}

// dense returns sp in Colored form, its n×n multiplicity matrix: the input
// of the reference engine.
func (sp *Sparse) dense() *Colored {
	c := NewColored(sp.N)
	copy(c.Color, sp.Color)
	for v := range sp.N {
		for a := sp.g.outStart[v]; a < sp.g.outStart[v+1]; a++ {
			c.Adj[v][sp.g.outDst[a]] = int(sp.g.outMult[a])
		}
	}
	return c
}
