package iso

// Differential tests of the optimized canonical engine against the frozen
// pre-optimization engine (reference.go) and the paper's exact min-word
// oracle (BruteCanonicalWord).

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// randomConnectedMulti builds a random connected multigraph (random spanning
// tree plus extra random edges, possibly parallel or loops) with a random
// bicoloring. Multiplicities stay small, so every refinement signature count
// has a single decimal digit and the reference engine's string-sorted
// subcell order coincides with the optimized engine's numeric order (see
// reference.go); on these graphs the two engines' words must be identical.
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
// the pre-optimization engine: identical canonical words on 200 random
// connected multigraphs with random bicolorings, and valid automorphism
// generators from both.
func TestNewVsReferenceWordEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(2003))
	for trial := 0; trial < 200; trial++ {
		c := randomConnectedMulti(rng, 12)
		opt := Canonical(c)
		ref := ReferenceCanonical(c)
		if !bytes.Equal(opt.Word, ref.Word) {
			t.Fatalf("trial %d (n=%d): optimized and reference words differ", trial, c.N)
		}
		// Both perms must realize the shared word.
		if !bytes.Equal(c.word(opt.Perm), opt.Word) {
			t.Fatalf("trial %d: optimized Perm does not serialize to Word", trial)
		}
		if !bytes.Equal(c.word(ref.Perm), ref.Word) {
			t.Fatalf("trial %d: reference Perm does not serialize to Word", trial)
		}
		for _, a := range opt.AutoGens {
			if !c.IsAutomorphism(a) {
				t.Fatalf("trial %d: optimized engine emitted a non-automorphism", trial)
			}
		}
	}
}

// TestSetReferenceEngineRoutes checks the benchmarking switch: with the
// reference engine selected, Canonical and CanonicalSparse must both
// produce the reference result, the sparse entry on the input's exact dense
// form (loops and parallel edges included).
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
		got := CanonicalWord(c)
		gotSparse := CanonicalSparse(SparseFromGraph(g, colors)).Word
		SetReferenceEngine(false)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: SetReferenceEngine(true) did not route Canonical through the reference engine", name)
		}
		if !bytes.Equal(gotSparse, want) {
			t.Fatalf("%s: SetReferenceEngine(true) did not route CanonicalSparse through the reference engine", name)
		}
	}
}

// TestCanonicalFormAgainstBruteOracle verifies the defining property of the
// canonical form against the paper's exact min-word oracle on colored graphs
// with n <= 7: two graphs have equal Canonical words iff they have equal
// brute-force min words (iff they are color-isomorphic). Exact equality of
// the two words is not required — and does not hold in general — because
// Canonical minimizes over the refinement-consistent orderings only (see the
// package comment), while BruteCanonicalWord minimizes over all n!
// orderings. Exhaustive over all simple graphs on 4 vertices with all
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
			canon[i] = string(CanonicalWord(c))
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
