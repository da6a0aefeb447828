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
// union-find state. The search state itself, scratch included, is recycled
// through a sync.Pool, so a warm search allocates only the Result it
// returns. DESIGN.md §8 describes the engine; reference.go keeps the
// original (pre-optimization) engine for differential tests and for
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

// Clone returns a deep copy.
func (c *Colored) Clone() *Colored {
	d := NewColored(c.N)
	copy(d.Color, c.Color)
	for i := range d.Adj {
		copy(d.Adj[i], c.Adj[i])
	}
	return d
}

// word serializes the graph relabeled by p (vertex v goes to position p[v]).
// Layout: colors in position order, then for each position i the block
//
//	Adj[v_i][v_0], …, Adj[v_i][v_i], Adj[v_0][v_i], …, Adj[v_{i-1}][v_i]
//
// where v_j is the vertex at position j — the growing-principal-submatrix
// order. Each of these n + n² values is written by appendValue: one byte
// when it lies in [0, 254], else 0xFF and a varint. That code is
// prefix-free, so the serialization is injective: two Colored values have
// equal words for some relabelings iff they are isomorphic. When every
// value fits one byte, the word is n + n² bytes long. This layout (rather
// than row-major rows) is what makes incremental best-word prefix pruning
// possible during the canonical search: once the first k positions of an
// ordering are fixed, the first n + k² values of its word are fixed too.
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
		dst = appendValue(dst, c.Color[v])
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
		dst = appendValue(dst, row[inv[j]])
	}
	for j := 0; j < i; j++ {
		dst = appendValue(dst, c.Adj[inv[j]][vi])
	}
	return dst
}

// appendValue appends one color or multiplicity to a dense word: a value in
// [0, 254] as its byte, any other as 0xFF followed by the unsigned varint
// of its two's-complement bits, so negative values encode injectively too.
func appendValue(dst []byte, x int) []byte {
	if uint(x) <= 254 {
		return append(dst, byte(x))
	}
	return appendUvarint(append(dst, 0xFF), uint64(x))
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

// Result is the outcome of a canonical labeling computation. It owns its
// slices: none of them shares memory with the search state, which is
// recycled for later searches.
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

// referenceEngine, when set, routes Canonical and CanonicalSparse through
// the frozen pre-optimization engine in reference.go. A benchmarking hook
// (cmd/benchiso measures the optimized engines' speedup on identical
// workloads, including elect.Analyze, without plumbing an engine parameter
// through every layer); not intended for production use.
var referenceEngine atomic.Bool

// SetReferenceEngine routes Canonical and CanonicalSparse through the
// frozen pre-optimization engine (on=true) or the optimized engines
// (on=false, the default). Under the switch CanonicalSparse returns the
// frozen engine's dense word. Both engines produce canonical forms; see
// reference.go for when their words coincide. Safe to call concurrently,
// but toggling while other goroutines are comparing words across the
// switch is a logic error.
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
	return denseState(c).run(ctx)
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
	return denseState(c).equitablePartition()
}

// equitablePartition refines the color partition, copies out its cells and
// releases st.
func (st *canonState) equitablePartition() [][]int {
	lv := st.level(0)
	st.initialPartition(lv)
	st.refine(lv)
	out := make([][]int, 0, lv.ncells)
	for k := 0; k < lv.ncells; k++ {
		out = append(out, append([]int(nil), lv.lab[lv.cellStart[k]:lv.cellStart[k+1]]...))
	}
	st.release()
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

// AutomorphismGens returns generators of the color-preserving automorphism
// group of c, never including the identity: the automorphisms the canonical
// search records, Canonical(c).AutoGens. For rigid graphs the slice is empty.
//
// They generate the whole group, by McKay's argument for nauty with the
// first minimum-word leaf in place of the first leaf. Let G_i fix the first
// i base vertices of that leaf's path pointwise, and let v be the path's
// child at depth i. A sibling w that G_i maps v onto cannot be searched
// before v: its subtree holds a minimum-word leaf, which would then be found
// first. So w is searched after best has its final value, and either
// reaches a leaf equal to best, which records an automorphism of G_i taking
// v to w, or is orbit-pruned by recorded automorphisms that fix the base.
// Either way the recorded elements of G_i are transitive on v's G_i-orbit,
// and induction up from the leaf, whose stabilizer is trivial, gives all of
// Aut(c). TestAutomorphismCounts checks the group order of both engines'
// generators on families with known |Aut|, and FuzzCanonical against a
// brute-force count.
func AutomorphismGens(c *Colored) []perm.Perm {
	return Canonical(c).AutoGens
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
