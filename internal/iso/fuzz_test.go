package iso

import (
	"bytes"
	"math/rand"
	"reflect"
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

// FuzzSparseEquitable differentially tests the worklist refinement against
// the reference engine's full-signature refinement, on the shapes that make
// its fragments lopsided: a long path or cycle with pendant trees hung off
// it, plus loops and parallel arcs, undirected or directed, in one to
// three colors. The equitable partitions must agree cell for cell and the
// canonical word must not move under a relabeling. Every vertex carries at
// most 9 arcs each way, so every count is one decimal digit and the
// reference's string order of signatures is their numeric order.
func FuzzSparseEquitable(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(0), uint8(0))
	f.Add(int64(2), uint8(33), uint8(1), uint8(1))
	f.Add(int64(3), uint8(25), uint8(2), uint8(2))
	f.Add(int64(4), uint8(38), uint8(7), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n8, shape, colors8 uint8) {
		rng := rand.New(rand.NewSource(seed))
		c := lopsidedGraph(rng, int(n8%39)+2, shape&1 != 0, shape&2 != 0, int(colors8%3)+1)
		want := refRefine(c, refInitialPartition(c)).cells
		if got := SparseEquitablePartition(SparseFromColored(c)); !reflect.DeepEqual(got, want) {
			t.Fatalf("equitable partition %v, reference refinement %v", got, want)
		}
		word := CanonicalSparse(SparseFromColored(c)).Word
		p := perm.Perm(rng.Perm(c.N))
		if !bytes.Equal(CanonicalSparse(SparseFromColored(c.Permuted(p))).Word, word) {
			t.Fatalf("canonical word changed under relabeling %v", p)
		}
	})
}

// lopsidedGraph builds an n-vertex multigraph: a path or cycle through a
// random share of the vertices, every other vertex hung as a pendant-tree
// leaf off an earlier one, then a few loops and parallel arcs. Undirected
// edges are arcs both ways; directed ones point either way, or both. No
// vertex gets more than 9 arcs out or in. Colors are mostly 0, with a few
// vertices in the palette's other colors.
func lopsidedGraph(rng *rand.Rand, n int, cycle, directed bool, palette int) *Colored {
	c := NewColored(n)
	out, in := make([]int, n), make([]int, n)
	arc := func(u, v int) {
		if out[u] < 9 && in[v] < 9 {
			c.Adj[u][v]++
			out[u]++
			in[v]++
		}
	}
	edge := func(u, v int) {
		switch {
		case !directed || rng.Intn(3) == 0:
			arc(u, v)
			arc(v, u)
		case rng.Intn(2) == 0:
			arc(u, v)
		default:
			arc(v, u)
		}
	}
	spine := n/2 + rng.Intn(n/2+1)
	for v := 1; v < spine; v++ {
		edge(v-1, v)
	}
	if cycle && spine > 2 {
		edge(spine-1, 0)
	}
	for v := spine; v < n; v++ {
		edge(rng.Intn(v), v)
	}
	for extra := rng.Intn(n/4 + 1); extra > 0; extra-- {
		u := rng.Intn(n)
		if rng.Intn(2) == 0 {
			arc(u, u)
		} else {
			edge(u, rng.Intn(n))
		}
	}
	for k := rng.Intn(3); k > 0 && palette > 1; k-- {
		c.Color[rng.Intn(n)] = 1 + rng.Intn(palette-1)
	}
	return c
}
