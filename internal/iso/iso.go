// Package iso implements isomorphism machinery for vertex-colored directed
// multigraphs: equitable partition refinement, canonical labeling by
// refinement-guided backtracking (a miniature nauty), isomorphism testing,
// and automorphism-group generators and orbits.
//
// This is the engine behind the paper's Lemma 3.1 (a deterministic total
// order on bi-colored digraphs via a canonical word) and Definition 2.1
// (node equivalence via color-preserving automorphisms). The paper defines
// its canonical word as the minimum of w(π(M)) over all n! permutations π;
// computing that exact minimum is factorial in the worst case, so Canonical
// instead minimizes over the refinement-consistent orderings explored by a
// nauty-style backtracking search. The result is still a canonical form —
// equal words exactly characterize color-isomorphism — and hence still
// induces the deterministic total order on isomorphism classes that
// Lemma 3.1 requires (the protocol only needs all agents to agree on one
// such order, as DESIGN.md §5 and §6 record). BruteCanonicalWord retains
// the paper's exact min-word definition as a small-instance oracle.
//
// Every solvability decision in the repo funnels through Canonical, so the
// hot paths here are written allocation-free: integer signature refinement
// over flat scratch buffers (no fmt, no strings, no maps), incremental
// best-word prefix pruning, and stabilizer-orbit pruning with cached
// union-find state. DESIGN.md §8 describes the engine; reference.go keeps
// the original (pre-optimization) engine for differential tests and for
// measuring the speedup (BENCH_iso.json).
package iso

import (
	"bytes"
	"context"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/perm"
)

// Colored is a vertex-colored directed multigraph given by an adjacency
// multiplicity matrix. Undirected graphs are represented symmetrically
// (a loop contributes 2 to its diagonal entry, matching
// graph.AdjacencyMatrix). Colors are small non-negative integers whose
// values are meaningful across graphs (e.g. 0 = white, 1 = black/home-base):
// two Colored values are isomorphic only under color-preserving bijections.
type Colored struct {
	N     int
	Color []int
	Adj   [][]int // Adj[u][v] = number of arcs u -> v
}

// NewColored allocates an all-white, arcless graph on n vertices whose
// adjacency rows share one flat backing array (a single allocation instead
// of n+1, and cache-contiguous row scans). Callers fill Color and Adj.
func NewColored(n int) *Colored {
	c := &Colored{N: n, Color: make([]int, n), Adj: make([][]int, n)}
	flat := make([]int, n*n)
	for i := range c.Adj {
		c.Adj[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return c
}

// FromGraph builds the symmetric Colored form of an undirected multigraph.
// colors may be nil (all vertices colored 0) or have length g.N().
func FromGraph(g *graph.Graph, colors []int) *Colored {
	n := g.N()
	c := &Colored{N: n, Color: make([]int, n), Adj: g.AdjacencyMatrix()}
	if colors != nil {
		if len(colors) != n {
			panic("iso: color slice length mismatch")
		}
		copy(c.Color, colors)
	}
	return c
}

// NewDigraph builds a Colored digraph on n vertices from arc list (u, v)
// pairs; parallel arcs accumulate multiplicity. colors may be nil.
func NewDigraph(n int, arcs [][2]int, colors []int) *Colored {
	c := NewColored(n)
	for _, a := range arcs {
		c.Adj[a[0]][a[1]]++
	}
	if colors != nil {
		if len(colors) != n {
			panic("iso: color slice length mismatch")
		}
		copy(c.Color, colors)
	}
	return c
}

// Clone returns a deep copy.
func (c *Colored) Clone() *Colored {
	d := NewColored(c.N)
	copy(d.Color, c.Color)
	for i := range d.Adj {
		copy(d.Adj[i], c.Adj[i])
	}
	return d
}

// Permuted returns the graph with vertex v renamed p[v].
func (c *Colored) Permuted(p perm.Perm) *Colored {
	d := NewColored(c.N)
	for v := 0; v < c.N; v++ {
		d.Color[p[v]] = c.Color[v]
		row, drow := c.Adj[v], d.Adj[p[v]]
		for w, m := range row {
			drow[p[w]] = m
		}
	}
	return d
}

// word serializes the graph relabeled by p (vertex v goes to position p[v]).
// Layout: colors in position order, then for each position i the block
//
//	Adj[v_i][v_0], …, Adj[v_i][v_i], Adj[v_0][v_i], …, Adj[v_{i-1}][v_i]
//
// where v_j is the vertex at position j — the growing-principal-submatrix
// order. Total length n + n², an injective serialization, so two Colored
// values have equal words for some relabelings iff they are isomorphic.
// This layout (rather than row-major rows) is what makes incremental
// best-word prefix pruning possible during the canonical search: once the
// first k positions of an ordering are fixed, its first n + k² word bytes
// are fixed too.
func (c *Colored) word(p perm.Perm) []byte {
	inv := make([]int, c.N)
	for v, pos := range p {
		inv[pos] = v
	}
	return c.appendWord(make([]byte, 0, c.N+c.N*c.N), inv)
}

// appendWord appends the serialization of the ordering inv (inv[pos] =
// vertex at position pos) to dst.
func (c *Colored) appendWord(dst []byte, inv []int) []byte {
	for _, v := range inv {
		dst = append(dst, byte(c.Color[v]))
	}
	for i, vi := range inv {
		dst = appendBlock(dst, c, inv, i, vi)
	}
	return dst
}

// appendBlock appends position i's word block for the ordering inv.
func appendBlock(dst []byte, c *Colored, inv []int, i, vi int) []byte {
	row := c.Adj[vi]
	for j := 0; j <= i; j++ {
		dst = append(dst, byte(row[inv[j]]))
	}
	for j := 0; j < i; j++ {
		dst = append(dst, byte(c.Adj[inv[j]][vi]))
	}
	return dst
}

// IsAutomorphism reports whether p is a color-preserving automorphism of c.
func (c *Colored) IsAutomorphism(p perm.Perm) bool {
	if len(p) != c.N {
		return false
	}
	for v := 0; v < c.N; v++ {
		if c.Color[p[v]] != c.Color[v] {
			return false
		}
		row, prow := c.Adj[v], c.Adj[p[v]]
		for w, m := range row {
			if prow[p[w]] != m {
				return false
			}
		}
	}
	return true
}

// Result is the outcome of a canonical labeling computation.
type Result struct {
	// Perm maps each original vertex to its canonical position.
	Perm perm.Perm
	// Word is the canonical byte string: two Colored values are
	// color-isomorphic iff their Words are equal.
	Word []byte
	// AutoGens generates the color-preserving automorphism group
	// (it may be empty for rigid graphs; the identity is never included).
	AutoGens []perm.Perm
}

// referenceEngine, when set, routes Canonical through the frozen pre-PR
// engine in reference.go. A benchmarking hook (cmd/benchiso measures the
// optimized engine's speedup on identical workloads, including
// elect.Analyze, without plumbing an engine parameter through every layer);
// not intended for production use.
var referenceEngine atomic.Bool

// SetReferenceEngine routes Canonical through the frozen pre-optimization
// engine (on=true) or the optimized engine (on=false, the default). Both
// engines produce canonical forms; see reference.go for when their words
// coincide. Safe to call concurrently, but toggling while other goroutines
// are comparing words across the switch is a logic error.
func SetReferenceEngine(on bool) { referenceEngine.Store(on) }

// Canonical computes a canonical form of c: the minimum serialized word
// over the refinement-consistent vertex orderings explored by the search.
// Words are equal iff the graphs are color-isomorphic, which is the property
// Lemma 3.1's total order needs (see the package comment).
func Canonical(c *Colored) *Result {
	r, err := CanonicalCtx(context.Background(), c)
	if err != nil {
		panic("iso: unreachable: uncancelable search returned " + err.Error())
	}
	return r
}

// CanonicalCtx is Canonical under a context: the search polls ctx once per
// search node and returns ctx.Err() when it fires. This is the path by which
// a canceled /v1/analyze request stops its canonical searches.
func CanonicalCtx(ctx context.Context, c *Colored) (*Result, error) {
	if c.N == 0 {
		return &Result{Perm: perm.Perm{}, Word: []byte{}}, nil
	}
	if referenceEngine.Load() {
		// The benchmark-only reference switch: the frozen engine is
		// uncancelable.
		return referenceCanonical(c), nil
	}
	return newCanonState(c).run(ctx)
}

// EquitablePartition returns the coarsest equitable refinement of c's color
// partition: the cells, in canonical (isomorphism-invariant) order, of the
// partition in which any two vertices of a cell have equal arc multiplicity
// into and out of every cell. This is the refinement step of the canonical
// search, exposed for benchmarks and diagnostics.
func EquitablePartition(c *Colored) [][]int {
	if c.N == 0 {
		return nil
	}
	st := newCanonState(c)
	lv := st.level(0)
	st.initialPartition(lv)
	st.refine(lv)
	out := make([][]int, 0, lv.ncells)
	for k := 0; k < lv.ncells; k++ {
		out = append(out, append([]int(nil), lv.lab[lv.cellStart[k]:lv.cellStart[k+1]]...))
	}
	return out
}

// CanonicalWord is a convenience wrapper returning only the canonical word.
func CanonicalWord(c *Colored) []byte { return Canonical(c).Word }

// Isomorphic reports whether a and b are color-isomorphic.
func Isomorphic(a, b *Colored) bool {
	if a.N != b.N {
		return false
	}
	return bytes.Equal(CanonicalWord(a), CanonicalWord(b))
}

// IsomorphismBetween returns a color-preserving isomorphism a→b (as the
// permutation sending vertex v of a to IsomorphismBetween(a,b)[v] of b),
// or nil if none exists.
func IsomorphismBetween(a, b *Colored) perm.Perm {
	if a.N != b.N {
		return nil
	}
	ra, rb := Canonical(a), Canonical(b)
	if !bytes.Equal(ra.Word, rb.Word) {
		return nil
	}
	// v --ra--> canonical pos --rb⁻¹--> vertex of b.
	return ra.Perm.Compose(rb.Perm.Inverse())
}

// AutomorphismGens returns generators of the color-preserving automorphism
// group of c, never including the identity. For rigid graphs the slice is
// empty.
func AutomorphismGens(c *Colored) []perm.Perm {
	return automorphismGensComplete(c)
}

// automorphismGensComplete computes generators whose generated group has the
// true automorphism orbits. The canonical-search generators alone are not
// guaranteed complete (orbit pruning can suppress leaves), so we verify and
// repair by the transporter method: vertices u, v are in the same orbit iff
// the graphs with u (resp. v) individualized are isomorphic, and the
// transporter isomorphism is an automorphism mapping u to v.
func automorphismGensComplete(c *Colored) []perm.Perm {
	gens := Canonical(c).AutoGens
	n := c.N
	// Union-find over current generators.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for _, g := range gens {
		for i, v := range g {
			union(i, v)
		}
	}
	// For every pair of distinct current roots with equal color, test
	// whether an automorphism merges them. The canonical form of the
	// graph-with-u-individualized is computed once per root u, not once
	// per candidate pair (it is the expensive half of every transporter
	// test in u's inner loop).
	fresh := 0
	for _, col := range c.Color {
		if col >= fresh {
			fresh = col + 1
		}
	}
	scratch := c.Clone()
	for u := 0; u < n; u++ {
		if find(u) != u {
			continue
		}
		var ru *Result // canonical form of c with u individualized, lazily
		for v := u + 1; v < n; v++ {
			if find(v) == find(u) || c.Color[v] != c.Color[u] {
				continue
			}
			if ru == nil {
				scratch.Color[u] = fresh
				ru = Canonical(scratch)
				scratch.Color[u] = c.Color[u]
			}
			scratch.Color[v] = fresh
			rv := Canonical(scratch)
			scratch.Color[v] = c.Color[v]
			if !bytes.Equal(ru.Word, rv.Word) {
				continue
			}
			// The transporter u→v: through the shared canonical form.
			a := ru.Perm.Compose(rv.Perm.Inverse())
			gens = append(gens, a)
			for i, w := range a {
				union(i, w)
			}
		}
	}
	return gens
}

// Orbits returns the orbits of the color-preserving automorphism group of c,
// each sorted ascending, ordered by smallest element.
func Orbits(c *Colored) [][]int {
	return perm.OrbitsOf(c.N, AutomorphismGens(c))
}

// BruteCanonicalWord computes the canonical word by trying all n!
// permutations; a correctness oracle for tests (n must be at most 8).
func BruteCanonicalWord(c *Colored) []byte {
	if c.N > 8 {
		panic("iso: BruteCanonicalWord limited to n <= 8")
	}
	var best []byte
	p := perm.Identity(c.N)
	var rec func(k int)
	rec = func(k int) {
		if k == c.N {
			w := c.word(p)
			if best == nil || bytes.Compare(w, best) < 0 {
				best = append([]byte(nil), w...)
			}
			return
		}
		for i := k; i < c.N; i++ {
			p[k], p[i] = p[i], p[k]
			rec(k + 1)
			p[k], p[i] = p[i], p[k]
		}
	}
	rec(0)
	return best
}
