package iso

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/perm"
)

func sparse(g *graph.Graph) *Sparse { return SparseFromGraph(g, nil) }

// word returns the canonical sparse word of sp.
func word(sp *Sparse) []byte { return CanonicalSparse(sp).Word }

// isomorphic reports whether a and b are color-isomorphic, by their
// canonical sparse words.
func isomorphic(a, b *Sparse) bool { return a.N == b.N && bytes.Equal(word(a), word(b)) }

// orbits returns the orbits of the automorphism generators the canonical
// search of sp records, each sorted ascending, ordered by smallest element.
func orbits(sp *Sparse) [][]int { return perm.OrbitsOf(sp.N, CanonicalSparse(sp).AutoGens) }

// TestCanonicalAgreesWithBruteForceOnIsomorphism checks the defining
// property of a canonical form against the paper's exact min-word oracle:
// two graphs have equal canonical words iff they have equal brute-force
// min words (i.e. iff they are color-isomorphic).
func TestCanonicalAgreesWithBruteForceOnIsomorphism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var cases []*Colored
	for _, g := range []*graph.Graph{
		graph.Path(4), graph.Cycle(5), graph.Complete(4), graph.Star(4), graph.Fig2c(),
	} {
		cases = append(cases, FromGraph(g, nil))
	}
	// Random colored graphs on <= 6 vertices, some with multi-edges and
	// loops, plus a random relabeling of each (guaranteeing isomorphic
	// pairs appear in the pool).
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(5)
		b := graph.NewBuilder(n)
		for e := 0; e < n+rng.Intn(n); e++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g := b.Graph()
		cols := make([]int, n)
		for i := range cols {
			cols[i] = rng.Intn(2)
		}
		cases = append(cases, FromGraph(g, cols))
		p := rng.Perm(n)
		h, err := g.Relabel(p)
		if err != nil {
			t.Fatal(err)
		}
		ncols := make([]int, n)
		for v, c := range cols {
			ncols[p[v]] = c
		}
		cases = append(cases, FromGraph(h, ncols))
	}
	words := make([][]byte, len(cases))
	brute := make([][]byte, len(cases))
	for i, c := range cases {
		words[i] = word(SparseFromColored(c))
		brute[i] = BruteCanonicalWord(c)
	}
	for i := range cases {
		for j := i + 1; j < len(cases); j++ {
			if cases[i].N != cases[j].N {
				continue
			}
			canonEq := bytes.Equal(words[i], words[j])
			bruteEq := bytes.Equal(brute[i], brute[j])
			if canonEq != bruteEq {
				t.Errorf("cases %d,%d: CanonicalSparse says iso=%v, brute force says %v",
					i, j, canonEq, bruteEq)
			}
		}
	}
}

func TestCanonicalInvariantUnderRelabeling(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	graphs := []*graph.Graph{
		graph.Petersen(),
		graph.Hypercube(3),
		graph.Cycle(9),
		graph.Torus(3, 3),
		graph.CompleteBipartite(3, 4),
		graph.RandomConnected(11, 6, 5),
		graph.Fig2c(),
	}
	for gi, g := range graphs {
		cols := make([]int, g.N())
		cols[0] = 1
		cols[g.N()/2] = 1
		base := word(SparseFromGraph(g, cols))
		for trial := 0; trial < 4; trial++ {
			p := rng.Perm(g.N())
			h, err := g.Relabel(p)
			if err != nil {
				t.Fatal(err)
			}
			ncols := make([]int, g.N())
			for v, c := range cols {
				ncols[p[v]] = c
			}
			if !bytes.Equal(base, word(SparseFromGraph(h, ncols))) {
				t.Errorf("graph %d: canonical word not invariant under relabeling", gi)
			}
		}
	}
}

func TestIsomorphicDistinguishes(t *testing.T) {
	// C6 vs two triangles: same degree sequence, not isomorphic.
	b := graph.NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		b.AddEdge(e[0], e[1])
	}
	twoTriangles := b.Graph()
	if isomorphic(sparse(graph.Cycle(6)), sparse(twoTriangles)) {
		t.Error("C6 and 2K3 reported isomorphic")
	}
	// K3,3 vs prism: both cubic on 6 vertices, not isomorphic.
	if isomorphic(sparse(graph.CompleteBipartite(3, 3)), sparse(graph.Prism(3))) {
		t.Error("K33 and prism reported isomorphic")
	}
	// Same graph, different colorings.
	g := graph.Cycle(5)
	c1 := SparseFromGraph(g, []int{1, 0, 0, 0, 0})
	c2 := SparseFromGraph(g, []int{1, 1, 0, 0, 0})
	if isomorphic(c1, c2) {
		t.Error("different black counts reported isomorphic")
	}
	// Colorings that differ by rotation are isomorphic.
	c3 := SparseFromGraph(g, []int{0, 0, 1, 0, 0})
	if !isomorphic(c1, c3) {
		t.Error("rotated coloring should be isomorphic")
	}
}

func TestIsomorphismBetweenIsWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := graph.Petersen()
	p := rng.Perm(g.N())
	h, _ := g.Relabel(p)
	a, b := FromGraph(g, nil), FromGraph(h, nil)
	phi := IsomorphismBetween(sparse(g), sparse(h))
	if phi == nil {
		t.Fatal("no isomorphism found between relabelings")
	}
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if a.Adj[u][v] != b.Adj[phi[u]][phi[v]] {
				t.Fatalf("witness is not an isomorphism at (%d,%d)", u, v)
			}
		}
	}
	if IsomorphismBetween(sparse(graph.Cycle(6)), sparse(graph.Prism(3))) != nil {
		t.Error("isomorphism invented between C6 and prism")
	}
}

// TestAutomorphismCounts pins |⟨AutoGens⟩| against the known group order.
// It guards the claim that the canonical search's own generators span the
// whole automorphism group (see CanonicalSparse). The twin-heavy,
// disconnected and strongly regular families below have large point
// stabilizers, whose generators the search finds deep in its tree.
func TestAutomorphismCounts(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int // automorphism group order
	}{
		{"path3", graph.Path(3), 2},
		{"cycle4", graph.Cycle(4), 8},
		{"cycle5", graph.Cycle(5), 10},
		{"K4", graph.Complete(4), 24},
		{"petersen", graph.Petersen(), 120},
		{"Q3", graph.Hypercube(3), 48},
		{"star3", graph.Star(3), 6},
		{"K33", graph.CompleteBipartite(3, 3), 72},
		{"3K3", disjointCopies(graph.Cycle(3), 3), 1296},
		{"3C4", disjointCopies(graph.Cycle(4), 3), 3072},
		{"2petersen", disjointCopies(graph.Petersen(), 2), 28800},
		{"shrikhande", z4z4Cayley([][2]int{{1, 0}, {0, 1}, {1, 1}}), 192},
		{"K4xK4", z4z4Cayley([][2]int{{1, 0}, {2, 0}, {0, 1}, {0, 2}}), 1152},
		{"paley13", graph.Circulant(13, []int{1, 3, 4}), 78},
		// C4 blown up by 3 is K6,6: 2·(6!)².
		{"blowup4x3", graph.BlowupCycle(4, 3), 1036800},
	}
	for _, tc := range cases {
		c, sp := FromGraph(tc.g, nil), sparse(tc.g)
		gens := CanonicalSparse(sp).AutoGens
		if got := groupOrder(c.N, gens); got != tc.want {
			t.Errorf("%s: |Aut| = %d, want %d", tc.name, got, tc.want)
		}
		for _, a := range gens {
			if !c.IsAutomorphism(a) || !csrIsAutomorphism(sp.g, sp.Color, a) {
				t.Errorf("%s: generator %v is not an automorphism", tc.name, a)
			}
		}
	}
}

// disjointCopies returns k disjoint copies of g.
func disjointCopies(g *graph.Graph, k int) *graph.Graph {
	n := g.N()
	b := graph.NewBuilder(k * n)
	for i := 0; i < k; i++ {
		for _, e := range g.EdgeEndpoints() {
			b.AddEdge(i*n+e[0], i*n+e[1])
		}
	}
	return b.Graph()
}

// z4z4Cayley returns the Cayley graph of Z4×Z4 with connection set S ∪ -S,
// vertex (x, y) numbered 4x+y. S must not hold both d and -d for d ≠ -d.
func z4z4Cayley(s [][2]int) *graph.Graph {
	b := graph.NewBuilder(16)
	for v := 0; v < 16; v++ {
		for _, d := range s {
			w := 4*((v/4+d[0])%4) + (v%4+d[1])%4
			if v < w || (d[0]+d[0])%4 != 0 || (d[1]+d[1])%4 != 0 {
				b.AddEdge(v, w)
			}
		}
	}
	return b.Graph()
}

// groupOrder returns |⟨gens⟩| on n points by the deterministic
// Schreier–Sims algorithm: levels of base points with strong generators are
// grown until every Schreier generator sifts to the identity, and the order
// is the product of the basic orbit lengths. Unlike perm.Closure it never
// lists the group, so orders in the millions stay cheap.
func groupOrder(n int, gens []perm.Perm) int {
	type level struct {
		base  int
		gens  []perm.Perm
		trans []perm.Perm // trans[x] maps base to x; nil off the basic orbit
	}
	var levels []*level
	// sift strips g through the levels from i on. It returns the residue and
	// the level where it stopped (len(levels) when it passed them all).
	sift := func(g perm.Perm, i int) (perm.Perm, int) {
		for ; i < len(levels); i++ {
			t := levels[i].trans[g[levels[i].base]]
			if t == nil {
				return g, i
			}
			g = g.Compose(t.Inverse())
		}
		return g, i
	}
	var add func(i int, g perm.Perm)
	add = func(i int, g perm.Perm) {
		if i == len(levels) {
			b := 0
			for g[b] == b {
				b++
			}
			levels = append(levels, &level{base: b})
		}
		l := levels[i]
		l.gens = append(l.gens, g)
		l.trans = make([]perm.Perm, n)
		l.trans[l.base] = perm.Identity(n)
		orbit := []int{l.base}
		for k := 0; k < len(orbit); k++ {
			for _, s := range l.gens {
				if y := s[orbit[k]]; l.trans[y] == nil {
					l.trans[y] = l.trans[orbit[k]].Compose(s)
					orbit = append(orbit, y)
				}
			}
		}
		for _, x := range orbit {
			for _, s := range l.gens {
				h := l.trans[x].Compose(s).Compose(l.trans[s[x]].Inverse())
				if r, _ := sift(h, i+1); !r.IsIdentity() {
					add(i+1, r)
				}
			}
		}
	}
	for _, g := range gens {
		if r, _ := sift(g, 0); !r.IsIdentity() {
			add(0, r)
		}
	}
	order := 1
	for _, l := range levels {
		orbit := 0
		for _, t := range l.trans {
			if t != nil {
				orbit++
			}
		}
		order *= orbit
	}
	return order
}

func TestOrbitsVertexTransitive(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Cycle(7), graph.Petersen(), graph.Hypercube(3), graph.Complete(5),
		graph.Torus(3, 3), graph.Prism(4), graph.MoebiusKantor(),
	} {
		orbs := orbits(sparse(g))
		if len(orbs) != 1 || len(orbs[0]) != g.N() {
			t.Errorf("%v: expected vertex-transitive (1 orbit), got %d orbits", g, len(orbs))
		}
	}
}

func TestOrbitsAsymmetric(t *testing.T) {
	// A path of 4: orbits {0,3}, {1,2}.
	orbs := orbits(sparse(graph.Path(4)))
	if len(orbs) != 2 {
		t.Fatalf("P4 orbits = %v", orbs)
	}
	// Star: center alone, leaves together.
	orbs = orbits(sparse(graph.Star(5)))
	if len(orbs) != 2 || len(orbs[0]) != 1 || len(orbs[1]) != 5 {
		t.Fatalf("star orbits = %v", orbs)
	}
}

func TestOrbitsWithColors(t *testing.T) {
	// C6 with two antipodal black nodes: blacks {0,3}, their neighbors
	// {1,2,4,5} all equivalent.
	cols := []int{1, 0, 0, 1, 0, 0}
	orbs := orbits(SparseFromGraph(graph.Cycle(6), cols))
	if len(orbs) != 2 {
		t.Fatalf("orbits = %v", orbs)
	}
	if len(orbs[0]) != 2 || len(orbs[1]) != 4 {
		t.Fatalf("orbit sizes = %v", orbs)
	}
	// C6 with two adjacent black nodes: classes {0,1}, {2,5}, {3,4}.
	cols = []int{1, 1, 0, 0, 0, 0}
	orbs = orbits(SparseFromGraph(graph.Cycle(6), cols))
	if len(orbs) != 3 {
		t.Fatalf("adjacent-black orbits = %v", orbs)
	}
}

func TestDigraphCanonicalDirectionSensitive(t *testing.T) {
	// Directed triangle vs directed path: different.
	tri := SparseFromArcs(3, [][2]int{{0, 1}, {1, 2}, {2, 0}}, nil)
	pth := SparseFromArcs(3, [][2]int{{0, 1}, {1, 2}, {0, 2}}, nil)
	if isomorphic(tri, pth) {
		t.Error("directed triangle and transitive tournament confused")
	}
	// Reversed triangle is isomorphic to the triangle (swap two vertices).
	rev := SparseFromArcs(3, [][2]int{{1, 0}, {2, 1}, {0, 2}}, nil)
	if !isomorphic(tri, rev) {
		t.Error("reversed directed triangle should be isomorphic")
	}
}

func TestPermutedConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	c := FromGraph(graph.RandomConnected(9, 5, 3), []int{1, 0, 0, 1, 0, 0, 0, 0, 0})
	p := perm.Perm(rng.Perm(9))
	d := c.Permuted(p)
	if !isomorphic(SparseFromColored(c), SparseFromColored(d)) {
		t.Fatal("Permuted produced non-isomorphic graph")
	}
	for v := 0; v < 9; v++ {
		if d.Color[p[v]] != c.Color[v] {
			t.Fatal("Permuted broke colors")
		}
	}
}

func TestLoopAndMultiEdgeSensitivity(t *testing.T) {
	// Triangle vs triangle with one doubled edge.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(0, 1)
	doubled := b.Graph()
	if isomorphic(sparse(graph.Cycle(3)), sparse(doubled)) {
		t.Error("multi-edge ignored by canonical form")
	}
	// Loop changes the graph.
	b2 := graph.NewBuilder(3)
	b2.AddEdge(0, 1)
	b2.AddEdge(1, 2)
	b2.AddEdge(2, 0)
	b2.AddEdge(0, 0)
	looped := b2.Graph()
	if isomorphic(sparse(graph.Cycle(3)), sparse(looped)) {
		t.Error("loop ignored by canonical form")
	}
}

func TestAutomorphismGensRespectColors(t *testing.T) {
	cols := []int{1, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	gens := CanonicalSparse(SparseFromGraph(graph.Petersen(), cols)).AutoGens
	g, err := perm.Closure(10, gens, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	// Stabilizer of a vertex in Petersen has order 120/10 = 12.
	if g.Order() != 12 {
		t.Errorf("colored Petersen aut order %d, want 12", g.Order())
	}
	for _, a := range g.Elements() {
		if a[0] != 0 {
			t.Fatal("automorphism moves the black node")
		}
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	if len(word(SparseFromArcs(0, nil, nil))) != 0 {
		t.Error("empty graph should have empty word")
	}
	r := CanonicalSparse(sparse(graph.Path(1)))
	if len(r.Perm) != 1 || r.Perm[0] != 0 {
		t.Error("singleton canonical perm wrong")
	}
}

func BenchmarkCanonicalPetersen(b *testing.B) {
	sp := sparse(graph.Petersen())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CanonicalSparse(sp)
	}
}

func BenchmarkCanonicalQ4(b *testing.B) {
	sp := sparse(graph.Hypercube(4))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CanonicalSparse(sp)
	}
}

// FromGraph builds the symmetric Colored form of an undirected multigraph,
// the reference engine's input: a loop contributes 2 to its diagonal entry,
// one per port. colors may be nil (all vertices colored 0) or have length
// g.N().
func FromGraph(g *graph.Graph, colors []int) *Colored {
	c := NewColored(g.N())
	for v := range c.N {
		for _, h := range g.Ports(v) {
			c.Adj[v][h.To]++
		}
	}
	if colors != nil {
		copy(c.Color, colors)
	}
	return c
}

// NewDigraph builds a Colored digraph on n vertices from arc list (u, v)
// pairs; parallel arcs accumulate multiplicity. colors may be nil.
func NewDigraph(n int, arcs [][2]int, colors []int) *Colored {
	c := NewColored(n)
	for _, a := range arcs {
		c.Adj[a[0]][a[1]]++
	}
	if colors != nil {
		if len(colors) != n {
			panic("iso: color slice length mismatch")
		}
		copy(c.Color, colors)
	}
	return c
}

// Permuted returns the graph with vertex v renamed p[v].
func (c *Colored) Permuted(p perm.Perm) *Colored {
	d := NewColored(c.N)
	for v := 0; v < c.N; v++ {
		d.Color[p[v]] = c.Color[v]
		row, drow := c.Adj[v], d.Adj[p[v]]
		for w, m := range row {
			drow[p[w]] = m
		}
	}
	return d
}

// IsomorphismBetween returns a color-preserving isomorphism a→b (as the
// permutation sending vertex v of a to IsomorphismBetween(a,b)[v] of b),
// or nil if none exists.
func IsomorphismBetween(a, b *Sparse) perm.Perm {
	if a.N != b.N {
		return nil
	}
	ra, rb := CanonicalSparse(a), CanonicalSparse(b)
	if !bytes.Equal(ra.Word, rb.Word) {
		return nil
	}
	// v --ra--> canonical pos --rb⁻¹--> vertex of b.
	return ra.Perm.Compose(rb.Perm.Inverse())
}
