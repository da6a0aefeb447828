package iso

import (
	"context"

	"repro/internal/graph"
	"repro/internal/perm"
)

// Sparse is a vertex-colored directed multigraph in compressed-sparse-row
// form — the O(n+m) counterpart of Colored for graphs too large to hold an
// n×n multiplicity matrix or an n+n² word. The sparse engine
// (CanonicalSparse) shares the refinement and search machinery with the
// dense engine but serializes the O(n+m) varint word described in
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

// SparseEquitablePartition returns the coarsest equitable refinement of
// sp's color partition, in canonical cell order — the sparse counterpart of
// EquitablePartition, O(n + m log n) per call.
func SparseEquitablePartition(sp *Sparse) [][]int {
	if sp.N == 0 {
		return nil
	}
	return sparseState(sp).equitablePartition()
}

// CanonicalSparse computes the canonical form of a Sparse. The sparse word
// is a different (O(n+m) varint) serialization than the dense engine's —
// words are comparable only within one engine — but carries the same
// guarantee: equal words exactly characterize color-isomorphism. The
// result's AutoGens generate the whole color-preserving automorphism group,
// by the argument given at AutomorphismGens (the search is shared), so
// perm.OrbitsOf of them is the exact orbit partition.
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
	if referenceEngine.Load() {
		// The benchmark-only reference switch: the frozen engine runs on
		// the dense form, uncancelable, and returns a dense word.
		return referenceCanonical(sp.dense()), nil
	}
	return sparseState(sp).run(ctx)
}

// dense returns sp in Colored form: its n×n multiplicity matrix.
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
