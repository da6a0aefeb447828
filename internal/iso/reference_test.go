package iso

// Differential tests of the optimized canonical engine against the frozen
// pre-optimization engine (reference.go) and the paper's exact min-word
// oracle (BruteCanonicalWord). The optimized engine writes sparse words and
// the reference dense ones, so the words themselves are never compared
// across engines: their equality relations, orbits and partitions are.

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/perm"
)

// ReferenceCanonical computes a canonical form of c with the frozen
// pre-optimization engine.
func ReferenceCanonical(c *Colored) *Result { return referenceCanonical(c) }

// randomConnectedMulti builds a random connected multigraph (random spanning
// tree plus extra random edges, possibly parallel or loops) with a random
// bicoloring. Multiplicities stay small, so every refinement signature count
// has a single decimal digit and the reference engine's string-sorted
// subcell order coincides with the optimized engine's numeric order (see
// reference.go); on these graphs the two engines' equitable partitions must
// be identical.
func randomConnectedMulti(rng *rand.Rand, maxN int) *Colored {
	n := 2 + rng.Intn(maxN-1)
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(rng.Intn(v), v)
	}
	for e := rng.Intn(n + 2); e > 0; e-- {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	cols := make([]int, n)
	for i := range cols {
		cols[i] = rng.Intn(2)
	}
	return FromGraph(b.Graph(), cols)
}

// TestNewVsReferenceWordEquality cross-checks the optimized engine against
// the pre-optimization engine on 200 random connected multigraphs with
// random bicolorings, plus a relabeled copy of each: equal sparse words
// exactly when equal reference words, the same automorphism orbits, each
// engine's Perm serializing to its own Word, and valid automorphism
// generators. The words themselves differ: they live in different code
// spaces.
func TestNewVsReferenceWordEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(2003))
	var pool []*Colored
	for trial := 0; trial < 200; trial++ {
		c := randomConnectedMulti(rng, 12)
		pool = append(pool, c, c.Permuted(rng.Perm(c.N)))
	}
	opt := make([]string, len(pool))
	ref := make([]string, len(pool))
	for i, c := range pool {
		sp := SparseFromColored(c)
		o, r := CanonicalSparse(sp), ReferenceCanonical(c)
		opt[i], ref[i] = string(o.Word), string(r.Word)
		if !bytes.Equal(sparseWordOf(sp, o.Perm), o.Word) {
			t.Fatalf("graph %d: optimized Perm does not serialize to Word", i)
		}
		if !bytes.Equal(c.word(r.Perm), r.Word) {
			t.Fatalf("graph %d: reference Perm does not serialize to Word", i)
		}
		for _, a := range o.AutoGens {
			if !c.IsAutomorphism(a) {
				t.Fatalf("graph %d: optimized engine emitted a non-automorphism", i)
			}
		}
		if got, want := perm.OrbitsOf(c.N, o.AutoGens), perm.OrbitsOf(c.N, r.AutoGens); !reflect.DeepEqual(got, want) {
			t.Fatalf("graph %d (n=%d): optimized orbits %v, reference orbits %v", i, c.N, got, want)
		}
	}
	equal := 0
	for i := range pool {
		for j := i + 1; j < len(pool); j++ {
			if (opt[i] == opt[j]) != (ref[i] == ref[j]) {
				t.Fatalf("graphs %d,%d: sparse words equal %v, reference words equal %v",
					i, j, opt[i] == opt[j], ref[i] == ref[j])
			}
			if opt[i] == opt[j] {
				equal++
			}
		}
	}
	if equal < len(pool)/2 {
		t.Fatalf("only %d isomorphic pairs among %d graphs: the relabeled copies went missing", equal, len(pool))
	}
}

// TestSetReferenceEngineRoutes checks the benchmarking switch: with the
// reference engine selected, CanonicalSparse must produce the reference
// result on the input's exact dense form (loops and parallel edges
// included).
func TestSetReferenceEngineRoutes(t *testing.T) {
	b := graph.NewBuilder(4)
	for _, e := range [][2]int{{0, 1}, {0, 1}, {1, 2}, {2, 2}, {2, 3}} {
		b.AddEdge(e[0], e[1])
	}
	for name, g := range map[string]*graph.Graph{"petersen": graph.Petersen(), "multigraph": b.Graph()} {
		colors := make([]int, g.N())
		colors[0] = 1
		c := FromGraph(g, colors)
		want := ReferenceCanonical(c).Word
		SetReferenceEngine(true)
		gotSparse := word(SparseFromGraph(g, colors))
		SetReferenceEngine(false)
		if !bytes.Equal(gotSparse, want) {
			t.Fatalf("%s: SetReferenceEngine(true) did not route CanonicalSparse through the reference engine", name)
		}
	}
}

// TestCanonicalFormAgainstBruteOracle verifies the defining property of the
// canonical form against the paper's exact min-word oracle on colored graphs
// with n <= 7: two graphs have equal canonical words iff they have equal
// brute-force min words (iff they are color-isomorphic). Exact equality of
// the two words is not required — and cannot hold: CanonicalSparse
// minimizes the sparse word over the refinement-consistent orderings only
// (see the package comment), while BruteCanonicalWord minimizes the dense
// word over all n! orderings. Exhaustive over all simple graphs on 4 vertices with all
// bicolorings, randomized up to n = 7 with multi-edges and loops.
func TestCanonicalFormAgainstBruteOracle(t *testing.T) {
	pools := make(map[int][]*Colored)
	// Exhaustive n = 4: every simple graph (64 edge subsets) with every
	// bicoloring (16), keeping one representative pool.
	for edges := 0; edges < 64; edges++ {
		for colbits := 0; colbits < 16; colbits++ {
			b := graph.NewBuilder(4)
			bit := 0
			for u := 0; u < 4; u++ {
				for v := u + 1; v < 4; v++ {
					if edges&(1<<bit) != 0 {
						b.AddEdge(u, v)
					}
					bit++
				}
			}
			cols := make([]int, 4)
			for i := range cols {
				if colbits&(1<<i) != 0 {
					cols[i] = 1
				}
			}
			pools[4] = append(pools[4], FromGraph(b.Graph(), cols))
		}
	}
	// Random multigraphs with loops up to n = 7, in relabeled pairs so
	// isomorphic pairs are guaranteed to appear.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(6)
		b := graph.NewBuilder(n)
		for e := 0; e < n+rng.Intn(n); e++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g := b.Graph()
		cols := make([]int, n)
		for i := range cols {
			cols[i] = rng.Intn(2)
		}
		pools[n] = append(pools[n], FromGraph(g, cols))
		p := rng.Perm(n)
		h, err := g.Relabel(p)
		if err != nil {
			t.Fatal(err)
		}
		ncols := make([]int, n)
		for v, c := range cols {
			ncols[p[v]] = c
		}
		pools[n] = append(pools[n], FromGraph(h, ncols))
	}
	for n, pool := range pools {
		canon := make([]string, len(pool))
		brute := make([]string, len(pool))
		for i, c := range pool {
			canon[i] = string(word(SparseFromColored(c)))
			brute[i] = string(BruteCanonicalWord(c))
		}
		// Equal brute words must predict equal canonical words exactly
		// (both characterize color-isomorphism).
		for i := range pool {
			for j := i + 1; j < len(pool); j++ {
				if (canon[i] == canon[j]) != (brute[i] == brute[j]) {
					t.Fatalf("n=%d pool %d,%d: canonical equality %v, brute equality %v",
						n, i, j, canon[i] == canon[j], brute[i] == brute[j])
				}
			}
		}
	}
}
