package iso_test

import (
	"bytes"
	"fmt"

	"repro/internal/graph"
	"repro/internal/iso"
	"repro/internal/perm"
)

// Canonical forms decide isomorphism: the Petersen graph drawn two ways.
func ExampleCanonicalSparse() {
	word := func(g *graph.Graph) []byte { return iso.CanonicalSparse(iso.SparseFromGraph(g, nil)).Word }
	a := graph.Petersen()
	b, _ := a.Relabel([]int{3, 1, 4, 0, 5, 9, 2, 6, 8, 7})
	fmt.Println(bytes.Equal(word(a), word(b)))
	fmt.Println(bytes.Equal(word(a), word(graph.Cycle(10))))
	// Output:
	// true
	// false
}

// Orbits of the automorphism group are the equivalence classes of
// Definition 2.1: a star's center is alone, its leaves are interchangeable.
func ExampleCanonicalSparse_orbits() {
	r := iso.CanonicalSparse(iso.SparseFromGraph(graph.Star(3), nil))
	fmt.Println(perm.OrbitsOf(4, r.AutoGens))
	// Output: [[0] [1 2 3]]
}
