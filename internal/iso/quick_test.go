package iso

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/perm"
)

func randomColored(rng *rand.Rand) (*Sparse, *graph.Graph, []int) {
	n := 2 + rng.Intn(8)
	g := graph.RandomConnected(n, rng.Intn(n), rng.Int63())
	cols := make([]int, n)
	for i := range cols {
		cols[i] = rng.Intn(3)
	}
	return SparseFromGraph(g, cols), g, cols
}

// Canonical invariance: the canonical word of a colored graph is unchanged
// by arbitrary relabelings — the property that lets every agent compute the
// same class order from its own map.
func TestQuickCanonicalInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, g, cols := randomColored(rng)
		w := word(c)
		p := rng.Perm(g.N())
		h, err := g.Relabel(p)
		if err != nil {
			return false
		}
		ncols := make([]int, g.N())
		for v, col := range cols {
			ncols[p[v]] = col
		}
		return bytes.Equal(w, word(SparseFromGraph(h, ncols)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Automorphism generators are genuine automorphisms, and their orbits
// refine color classes.
func TestQuickAutomorphismsValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, g, cols := randomColored(rng)
		gens := CanonicalSparse(c).AutoGens
		for _, a := range gens {
			if !csrIsAutomorphism(c.g, c.Color, a) || !FromGraph(g, cols).IsAutomorphism(a) {
				return false
			}
		}
		for _, orbit := range perm.OrbitsOf(c.N, gens) {
			col := c.Color[orbit[0]]
			for _, v := range orbit {
				if c.Color[v] != col {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// The isomorphism witness, whenever returned, really is one.
func TestQuickIsomorphismWitness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sp, g, cols := randomColored(rng)
		p := rng.Perm(g.N())
		h, err := g.Relabel(p)
		if err != nil {
			return false
		}
		ncols := make([]int, g.N())
		for v, col := range cols {
			ncols[p[v]] = col
		}
		phi := IsomorphismBetween(sp, SparseFromGraph(h, ncols))
		if phi == nil {
			return false
		}
		// Check the witness on the n×n forms.
		c, d := FromGraph(g, cols), FromGraph(h, ncols)
		for u := 0; u < c.N; u++ {
			if d.Color[phi[u]] != c.Color[u] {
				return false
			}
			for v := 0; v < c.N; v++ {
				if c.Adj[u][v] != d.Adj[phi[u]][phi[v]] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
