package labeling

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/iso"
	"repro/internal/perm"
)

// This file keeps the Theorem 2.1 check as it stood before the lazy
// search, as the differential reference: close the color-preserving
// automorphism group with perm.Closure, then scan its sorted element list
// for the first φ ≠ id that preserves some labeling. The lazy search must
// return the same witness, φ and labeling alike.

func refExistsSymmetricLabeling(t *testing.T, g *graph.Graph, colors []int) *SymmetricWitness {
	t.Helper()
	gens := iso.CanonicalSparse(iso.SparseFromGraph(g, colors)).AutoGens
	aut, err := perm.Closure(g.N(), gens, 1<<17)
	if err != nil {
		t.Fatal(err)
	}
	for _, phi := range aut.Elements() {
		if phi.IsIdentity() {
			continue
		}
		if l, ok := labelingPreservedBy(g, phi); ok {
			return &SymmetricWitness{Labeling: l, Phi: phi}
		}
	}
	return nil
}

// checkWitness fails unless ExistsSymmetricLabeling returns the reference
// witness of (g, colors); it reports whether there is one.
func checkWitness(t *testing.T, name string, g *graph.Graph, colors []int) bool {
	t.Helper()
	got, err := ExistsSymmetricLabeling(g, colors, 0)
	if err != nil {
		t.Fatalf("%s %v: %v", name, colors, err)
	}
	want := refExistsSymmetricLabeling(t, g, colors)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %v: witness %+v, reference %+v", name, colors, got, want)
	}
	return want != nil
}

// TestWitnessMatchesReferenceSmall runs every labeled graph on at most 5
// nodes with every home set. The disconnected ones (2K2, K3+K2 and the
// rest) take the search's other branch: no gcd short cut, and every
// automorphism of 0's orbit tried, fixed points and all.
func TestWitnessMatchesReferenceSmall(t *testing.T) {
	instances, witnesses, disconnected := 0, 0, 0
	for n := 1; n <= 5; n++ {
		var pairs [][2]int
		for u := 0; u < n; u++ {
			for w := u + 1; w < n; w++ {
				pairs = append(pairs, [2]int{u, w})
			}
		}
		for mask := 0; mask < 1<<len(pairs); mask++ {
			b := graph.NewBuilder(n)
			for i, p := range pairs {
				if mask&(1<<i) != 0 {
					b.AddEdge(p[0], p[1])
				}
			}
			g := b.Graph()
			for homes := 1; homes < 1<<n; homes++ {
				colors := make([]int, n)
				for v := range colors {
					colors[v] = homes >> v & 1
				}
				instances++
				if !g.IsConnected() {
					disconnected++
				}
				if checkWitness(t, fmt.Sprintf("n=%d mask=%#x", n, mask), g, colors) {
					witnesses++
				}
			}
		}
	}
	// Labeled graphs on 1..5 nodes: 1, 2, 8, 64 and 1,024, of which 1, 1,
	// 4, 38 and 728 are connected, each with 2ⁿ − 1 home sets.
	if instances != 1+6+56+960+31744 || disconnected != 3+28+390+9176 {
		t.Fatalf("%d instances, %d disconnected", instances, disconnected)
	}
	t.Logf("%d instances, %d disconnected, %d with a witness", instances, disconnected, witnesses)
}

// TestWitnessMatchesReferenceFamilies runs the vertex-transitive families
// and their near misses with random home sets.
func TestWitnessMatchesReferenceFamilies(t *testing.T) {
	fams := map[string]*graph.Graph{
		"petersen": graph.Petersen(), "moebius-kantor": graph.MoebiusKantor(),
		"CCC3": graph.CCC(3), "star4": graph.StarGraph(4), "pancake4": graph.Pancake(4),
		"wbf3": graph.WrappedButterfly(3),
	}
	for n := 3; n <= 30; n++ {
		fams[fmt.Sprintf("C%d", n)] = graph.Cycle(n)
		fams[fmt.Sprintf("prism%d", n)] = graph.Prism(n)
	}
	for d := 1; d <= 5; d++ {
		fams[fmt.Sprintf("Q%d", d)] = graph.Hypercube(d)
	}
	for n := 2; n <= 8; n++ {
		fams[fmt.Sprintf("K%d", n)] = graph.Complete(n)
	}
	for a := 1; a <= 4; a++ {
		for b := a; b <= 4; b++ {
			fams[fmt.Sprintf("K%d,%d", a, b)] = graph.CompleteBipartite(a, b)
		}
	}
	for a := 3; a <= 6; a++ {
		for b := a; b <= 6; b++ {
			fams[fmt.Sprintf("T%dx%d", a, b)] = graph.Torus(a, b)
		}
	}
	for n := 5; n <= 16; n++ {
		fams[fmt.Sprintf("circ%d{1,2}", n)] = graph.Circulant(n, []int{1, 2})
		if n >= 6 {
			fams[fmt.Sprintf("circ%d{1,3}", n)] = graph.Circulant(n, []int{1, 3})
		}
	}
	for i := 0; i < 30; i++ {
		fams[fmt.Sprintf("RR3-%d", i)] = graph.RandomRegular(8+2*(i%9), 3, int64(i+1))
	}
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(11))
	for _, name := range names {
		g := fams[name]
		n := g.N()
		for k := 0; k < 3; k++ {
			colors := make([]int, n)
			for _, h := range rng.Perm(n)[:1+rng.Intn(min(4, n))] {
				colors[h] = 1
			}
			checkWitness(t, name, g, colors)
		}
		// The antipodal-style placement with a large gcd: every
		// (n/d)-th node for the smallest divisor d > 1 of n.
		for d := 2; d <= n; d++ {
			if n%d == 0 {
				colors := make([]int, n)
				for v := 0; v < n; v += n / d {
					colors[v] = 1
				}
				checkWitness(t, name+" spread", g, colors)
				break
			}
		}
	}
}
