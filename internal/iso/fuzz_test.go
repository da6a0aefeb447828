package iso

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/perm"
)

// FuzzCanonical drives random bi-colored digraphs through the canonical
// engine and checks the defining property of a canonical form: the word is
// invariant under arbitrary relabelings of the instance, and distinct words
// imply non-isomorphic graphs (exercised here by a recolor probe). It also
// checks that the search's generators span the whole automorphism group,
// against a brute-force count.
func FuzzCanonical(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(9), uint8(0))
	f.Add(int64(7), uint8(3), uint8(4), uint8(2))
	f.Add(int64(42), uint8(8), uint8(20), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n8, m8, colors8 uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8%8) + 1
		m := int(m8 % 24)
		palette := int(colors8%3) + 1
		c := NewColored(n)
		for v := 0; v < n; v++ {
			c.Color[v] = rng.Intn(palette)
		}
		for e := 0; e < m; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			c.Adj[u][v]++
		}
		res := CanonicalSparse(SparseFromColored(c))
		word := res.Word
		if got, want := groupOrder(n, res.AutoGens), bruteAutCount(c); got != want {
			t.Fatalf("|<AutoGens>| = %d, brute-force |Aut| = %d", got, want)
		}

		// Relabel by a uniform random permutation: the word must not move.
		images := rng.Perm(n)
		p, err := perm.FromImages(images)
		if err != nil {
			t.Fatalf("FromImages(%v): %v", images, err)
		}
		if got := CanonicalSparse(SparseFromColored(c.Permuted(p))).Word; !bytes.Equal(got, word) {
			t.Fatalf("canonical word changed under relabeling %v", images)
		}

		// Recoloring one vertex into a fresh color class yields a
		// non-isomorphic graph, so the word must change.
		mut := c.Clone()
		mut.Color[rng.Intn(n)] = palette
		if bytes.Equal(CanonicalSparse(SparseFromColored(mut)).Word, word) {
			t.Fatal("canonical word blind to a color change")
		}

		// And the Perm must relabel the graph into the word.
		if !bytes.Equal(sparseWordOf(SparseFromColored(c), res.Perm), word) {
			t.Fatal("canonical Perm does not serialize to the Word")
		}
	})
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

// bruteAutCount counts the color-preserving automorphisms of c by
// backtracking over partial vertex maps: vertex v may go to w only when
// colors, loops and the arcs to every already-mapped vertex agree.
func bruteAutCount(c *Colored) int {
	img := make([]int, c.N)
	used := make([]bool, c.N)
	var extend func(v int) int
	extend = func(v int) int {
		if v == c.N {
			return 1
		}
		count := 0
		for w := 0; w < c.N; w++ {
			if used[w] || c.Color[w] != c.Color[v] || c.Adj[w][w] != c.Adj[v][v] {
				continue
			}
			ok := true
			for u := 0; u < v && ok; u++ {
				ok = c.Adj[img[u]][w] == c.Adj[u][v] && c.Adj[w][img[u]] == c.Adj[v][u]
			}
			if ok {
				img[v], used[w] = w, true
				count += extend(v + 1)
				used[w] = false
			}
		}
		return count
	}
	return extend(0)
}
