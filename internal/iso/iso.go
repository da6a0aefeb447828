// Package iso implements isomorphism machinery for vertex-colored directed
// multigraphs: equitable partition refinement and canonical labeling by
// refinement-guided backtracking (a miniature nauty), whose canonical word
// decides isomorphism and whose recorded automorphisms generate the
// automorphism group.
//
// This is the engine behind the paper's Lemma 3.1 (a deterministic total
// order on bi-colored digraphs via a canonical word) and Definition 2.1
// (node equivalence via color-preserving automorphisms). The paper defines
// its canonical word as the minimum of w(π(M)) over all n! permutations π;
// computing that exact minimum is factorial in the worst case, so
// CanonicalSparse instead minimizes an O(n+m) word over the
// refinement-consistent orderings explored by a nauty-style backtracking
// search. The result is still a canonical form — equal words exactly
// characterize color-isomorphism — and hence still induces the
// deterministic total order on isomorphism classes that Lemma 3.1 requires
// (the protocol only needs all agents to agree on one such order, as
// DESIGN.md §5 and §6 record). BruteCanonicalWord retains the paper's exact
// min-word definition, on the n×n Colored form, as a small-instance oracle.
//
// Every solvability decision in the repo funnels through CanonicalSparse,
// so the hot paths here are written allocation-free: integer signature
// refinement over flat scratch buffers (no fmt, no strings, no maps),
// incremental best-word prefix pruning, and stabilizer-orbit pruning with
// cached union-find state. The search state itself, scratch included, is
// recycled through a sync.Pool, so a warm search allocates only the Result
// it returns. DESIGN.md §8 and §13 describe the engine; reference.go keeps
// the original (pre-optimization) engine, on the dense Colored form, for
// differential tests and for measuring the speedup (BENCH_iso.json).
package iso

import (
	"bytes"
	"sync/atomic"

	"repro/internal/perm"
)

// Colored is a vertex-colored directed multigraph given by an adjacency
// multiplicity matrix: the input of the frozen reference engine
// (reference.go) and of BruteCanonicalWord. Undirected graphs are
// represented symmetrically (a loop contributes 2 to its diagonal entry,
// one per port). Colors follow Sparse.Color's conventions.
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
// value fits one byte, the word is n + n² bytes long. It is the word of the
// reference engine and of BruteCanonicalWord; CanonicalSparse writes the
// O(n+m) word of DESIGN.md §13 instead.
func (c *Colored) word(p perm.Perm) []byte {
	inv := make([]int, c.N) // inv[pos] = vertex at position pos
	for v, pos := range p {
		inv[pos] = v
	}
	w := make([]byte, 0, c.N+c.N*c.N)
	for _, v := range inv {
		w = appendValue(w, c.Color[v])
	}
	for i, vi := range inv {
		for _, vj := range inv[:i+1] {
			w = appendValue(w, c.Adj[vi][vj])
		}
		for _, vj := range inv[:i] {
			w = appendValue(w, c.Adj[vj][vi])
		}
	}
	return w
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
	// Word is the canonical sparse word (DESIGN.md §13): two Sparse values
	// are color-isomorphic iff their Words are equal. Under
	// SetReferenceEngine it is the reference engine's dense word instead.
	Word []byte
	// AutoGens generates the color-preserving automorphism group
	// (it may be empty for rigid graphs; the identity is never included).
	AutoGens []perm.Perm
}

// referenceEngine, when set, routes CanonicalSparse through the frozen
// pre-optimization engine in reference.go. A benchmarking hook
// (cmd/benchiso measures the optimized engine's speedup on identical
// workloads, including elect.Analyze, without plumbing an engine parameter
// through every layer); not intended for production use.
var referenceEngine atomic.Bool

// SetReferenceEngine routes CanonicalSparse through the frozen
// pre-optimization engine (on=true) or the optimized engine (on=false, the
// default). Under the switch CanonicalSparse runs the frozen engine on the
// input's n×n form and returns its dense word, which lives in a different
// code space from the sparse word: both are canonical forms, but compare
// words from one side of the switch only. Safe to call concurrently, but
// toggling while other goroutines are comparing words across the switch is
// a logic error.
func SetReferenceEngine(on bool) { referenceEngine.Store(on) }

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
