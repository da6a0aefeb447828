package iso

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/perm"
)

// TestWordWideValues: colors and multiplicities above 254, and negative
// ones, get words of their own, in the sparse word and in the reference
// engine's dense word. With one byte per value, P3 colored {1, 0, 0} and
// {257, 0, 0} tested isomorphic, and P2 weighted {1, 1} and {1, 257} shared
// a canonical word.
func TestWordWideValues(t *testing.T) {
	multi := func(m int) *Colored { return NewDigraph(2, [][2]int{{0, 1}}, nil).withArc(0, 1, m) }
	for _, tc := range []struct {
		what string
		a, b *Colored
	}{
		{"P3 colored {1,0,0} and {257,0,0}", FromGraph(graph.Path(3), []int{1, 0, 0}), FromGraph(graph.Path(3), []int{257, 0, 0})},
		{"P2 weighted {1,1} and {1,257}", FromGraph(graph.Path(2), []int{1, 1}), FromGraph(graph.Path(2), []int{1, 257})},
		{"colors -1 and 255", FromGraph(graph.Path(2), []int{-1, 0}), FromGraph(graph.Path(2), []int{255, 0})},
		{"multiplicities 3 and 259", multi(3), multi(259)},
	} {
		if bytes.Equal(word(SparseFromColored(tc.a)), word(SparseFromColored(tc.b))) {
			t.Errorf("%s share a sparse word", tc.what)
		}
		if bytes.Equal(ReferenceCanonical(tc.a).Word, ReferenceCanonical(tc.b).Word) {
			t.Errorf("%s share a dense word", tc.what)
		}
	}
}

// withArc sets the multiplicity of the arc u→v.
func (c *Colored) withArc(u, v, m int) *Colored {
	c.Adj[u][v] = m
	return c
}

// TestWordInjectiveProperty: on random colored digraphs with at most 6
// nodes and values up to 1,000, two canonical words — sparse, and the
// reference engine's dense ones — are equal iff a brute-force search over
// all relabelings finds an isomorphism.
func TestWordInjectiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	values := []int{0, 1, 2, 253, 254, 255, 256, 257, 511, 1000}
	draw := func(n int) *Colored {
		c := NewColored(n)
		for v := range c.Color {
			c.Color[v] = values[rng.Intn(3)*rng.Intn(len(values))/2]
		}
		for u := range c.Adj {
			for w := range c.Adj[u] {
				if rng.Intn(3) == 0 {
					c.Adj[u][w] = values[rng.Intn(len(values))]
				}
			}
		}
		return c
	}
	equal, trials := 0, 600
	if testing.Short() {
		trials = 100
	}
	for i := 0; i < trials; i++ {
		n := 1 + rng.Intn(6)
		a := draw(n)
		var b *Colored
		if i%2 == 0 {
			// An isomorphic copy, perturbed in one value half the time.
			b = a.Permuted(rng.Perm(n))
			if rng.Intn(2) == 0 {
				u, w := rng.Intn(n), rng.Intn(n)
				b.Adj[u][w] = values[rng.Intn(len(values))]
			}
		} else {
			b = draw(n)
		}
		same := bytes.Equal(word(SparseFromColored(a)), word(SparseFromColored(b)))
		iso := bruteIsomorphic(a, b)
		if same != iso {
			t.Fatalf("trial %d: sparse words equal %v, brute-force isomorphic %v\na=%+v\nb=%+v", i, same, iso, a, b)
		}
		if ref := bytes.Equal(ReferenceCanonical(a).Word, ReferenceCanonical(b).Word); ref != iso {
			t.Fatalf("trial %d: dense words equal %v, brute-force isomorphic %v\na=%+v\nb=%+v", i, ref, iso, a, b)
		}
		if same {
			equal++
		}
	}
	if equal < trials/8 {
		t.Fatalf("only %d of %d pairs isomorphic: the property is barely exercised", equal, trials)
	}
}

// bruteIsomorphic tries every bijection from a to b.
func bruteIsomorphic(a, b *Colored) bool {
	if a.N != b.N {
		return false
	}
	p := perm.Identity(a.N)
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == a.N {
			return a.Permuted(p).equal(b)
		}
		for i := k; i < a.N; i++ {
			p[k], p[i] = p[i], p[k]
			if rec(k + 1) {
				return true
			}
			p[k], p[i] = p[i], p[k]
		}
		return false
	}
	return rec(0)
}

func (c *Colored) equal(d *Colored) bool {
	for v := range c.Color {
		if c.Color[v] != d.Color[v] {
			return false
		}
		for w := range c.Adj[v] {
			if c.Adj[v][w] != d.Adj[v][w] {
				return false
			}
		}
	}
	return true
}
