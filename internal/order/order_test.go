package order

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/iso"
)

func blackCols(n int, idx ...int) []int {
	c := make([]int, n)
	for _, i := range idx {
		c[i] = 1
	}
	return c
}

// surroundingMults returns the arc multiplicities of the surrounding S(u)
// of g, keyed by arc.
func surroundingMults(g *graph.Graph, u int) map[[2]int]int {
	m := make(map[[2]int]int)
	for _, a := range surroundingArcs(nil, g.EdgeEndpoints(), g.BFSDist(u)) {
		m[a]++
	}
	return m
}

// surroundingWord returns the canonical word of the surrounding S(u) of
// (g, colors).
func surroundingWord(g *graph.Graph, colors []int, u int) []byte {
	return iso.CanonicalSparse(Surrounding(g, colors, u)).Word
}

func TestSurroundingBasics(t *testing.T) {
	// P3 from the middle: arcs point outward from node 1.
	g := graph.Path(3)
	s := surroundingMults(g, 1)
	if s[[2]int{1, 0}] != 1 || s[[2]int{1, 2}] != 1 {
		t.Error("middle node should have outward arcs")
	}
	if s[[2]int{0, 1}] != 0 || s[[2]int{2, 1}] != 0 {
		t.Error("no inward arcs expected at the root")
	}
	// From an end: chain of arcs.
	s = surroundingMults(g, 0)
	if s[[2]int{0, 1}] != 1 || s[[2]int{1, 2}] != 1 || s[[2]int{1, 0}] != 0 || s[[2]int{2, 1}] != 0 {
		t.Error("surrounding from end should be a directed path")
	}
	// A loop is one arc, parallel edges one arc each way they point, and
	// Surrounding canonicalizes exactly that arc list.
	b := graph.NewBuilder(3)
	for _, e := range [][2]int{{0, 1}, {0, 1}, {1, 2}, {2, 2}} {
		b.AddEdge(e[0], e[1])
	}
	mg := b.Graph()
	s = surroundingMults(mg, 0)
	if s[[2]int{0, 1}] != 2 || s[[2]int{1, 2}] != 1 || s[[2]int{2, 2}] != 1 || len(s) != 3 {
		t.Errorf("multigraph surrounding arcs %v, want 0→1 twice, 1→2 and the loop 2→2", s)
	}
	want := iso.CanonicalSparse(iso.SparseFromArcs(3, [][2]int{{2, 2}, {1, 2}, {0, 1}, {0, 1}}, nil)).Word
	if !bytes.Equal(surroundingWord(mg, nil, 0), want) {
		t.Error("Surrounding does not canonicalize its arc list")
	}
}

func TestSurroundingRootUniqueInDegreeZero(t *testing.T) {
	gs := []*graph.Graph{
		graph.Cycle(6), graph.Petersen(), graph.Hypercube(3),
		graph.Star(4), graph.RandomConnected(10, 6, 21),
	}
	for _, g := range gs {
		for u := 0; u < g.N(); u++ {
			s := surroundingMults(g, u)
			for v := 0; v < g.N(); v++ {
				in := 0
				for x := 0; x < g.N(); x++ {
					if x != v {
						in += s[[2]int{x, v}]
					}
				}
				if (in == 0) != (v == u) {
					t.Fatalf("%v: node %d has in-degree %d in S(%d)", g, v, in, u)
				}
			}
		}
	}
}

func TestSurroundingEquidistantEdgesBidirectional(t *testing.T) {
	// C4 from node 0: nodes 1 and 3 are at distance 1; node 2 at distance
	// 2. Edge {1,2}: d(0,1)=1 < d(0,2)=2, arc 1->2 only.
	g := graph.Cycle(4)
	s := surroundingMults(g, 0)
	if s[[2]int{1, 2}] != 1 || s[[2]int{2, 1}] != 0 {
		t.Error("edge {1,2} should be directed 1->2")
	}
	// C5 from 0: nodes 2,3 both at distance 2, edge {2,3} bidirectional.
	g = graph.Cycle(5)
	s = surroundingMults(g, 0)
	if s[[2]int{2, 3}] != 1 || s[[2]int{3, 2}] != 1 {
		t.Error("equidistant edge {2,3} should be bidirectional")
	}
}

func TestLemma31EquivalenceViaSurroundings(t *testing.T) {
	// u ~ v (automorphism orbit) iff S(u) ≅ S(v) — the two computations of
	// the classes must agree.
	type tc struct {
		g      *graph.Graph
		colors []int
	}
	cases := []tc{
		{graph.Cycle(6), blackCols(6, 0, 3)},
		{graph.Cycle(6), blackCols(6, 0, 2)},
		{graph.Petersen(), blackCols(10, 0, 1)},
		{graph.Path(5), blackCols(5, 0)},
		{graph.Star(4), blackCols(5, 1)},
		{graph.Hypercube(3), blackCols(8, 0, 7)},
		{graph.RandomConnected(9, 4, 33), blackCols(9, 2, 5)},
	}
	for ci, c := range cases {
		classOf := make([]int, c.g.N())
		for i, o := range Classes(c.g, c.colors) {
			for _, v := range o {
				classOf[v] = i
			}
		}
		words := make([][]byte, c.g.N())
		for v := 0; v < c.g.N(); v++ {
			words[v] = surroundingWord(c.g, c.colors, v)
		}
		for u := 0; u < c.g.N(); u++ {
			for v := u + 1; v < c.g.N(); v++ {
				same := string(words[u]) == string(words[v])
				if same != (classOf[u] == classOf[v]) {
					t.Errorf("case %d: nodes %d,%d: surroundings equal=%v, orbits equal=%v",
						ci, u, v, same, classOf[u] == classOf[v])
				}
			}
		}
	}
}

func TestComputeAndOrderCycleAntipodal(t *testing.T) {
	colors := blackCols(6, 0, 3)
	for _, ord := range []Ordering{Direct, Hairs} {
		o := ComputeAndOrder(graph.Cycle(6), colors, ord)
		// Classes: blacks {0,3}, then whites {1,2,4,5} (all equivalent).
		if len(o.Classes) != 2 {
			t.Fatalf("ordering %v: classes %v", ord, o.Classes)
		}
		if o.NumBlack != 1 {
			t.Fatalf("ordering %v: NumBlack=%d, want 1", ord, o.NumBlack)
		}
		if len(o.Classes[0]) != 2 || len(o.Classes[1]) != 4 {
			t.Fatalf("ordering %v: sizes %v", ord, o.Sizes())
		}
		if o.GCD() != 2 {
			t.Fatalf("ordering %v: gcd %d, want 2", ord, o.GCD())
		}
		if o.Tied {
			t.Fatalf("ordering %v: unexpected tie", ord)
		}
	}
}

func TestComputeAndOrderPetersen(t *testing.T) {
	colors := blackCols(10, 0, 1)
	o := ComputeAndOrder(graph.Petersen(), colors, Direct)
	if len(o.Classes) != 3 || o.NumBlack != 1 {
		t.Fatalf("classes %v NumBlack=%d", o.Classes, o.NumBlack)
	}
	if len(o.Classes[0]) != 2 {
		t.Fatalf("black class %v", o.Classes[0])
	}
	if o.GCD() != 2 {
		t.Fatalf("gcd %d, want 2 (the Figure 5 counterexample)", o.GCD())
	}
}

func TestOrderIsIsomorphismInvariant(t *testing.T) {
	// Relabeling the graph must not change the ordered class structure
	// (sizes, keys) — this is what lets every agent agree on ≺ from its
	// own map.
	rng := rand.New(rand.NewSource(41))
	g := graph.Petersen()
	colors := blackCols(10, 0, 1)
	for _, ord := range []Ordering{Direct, Hairs} {
		base := ComputeAndOrder(g, colors, ord)
		for trial := 0; trial < 3; trial++ {
			p := rng.Perm(10)
			h, err := g.Relabel(p)
			if err != nil {
				t.Fatal(err)
			}
			ncols := make([]int, 10)
			for v, c := range colors {
				ncols[p[v]] = c
			}
			o := ComputeAndOrder(h, ncols, ord)
			if len(o.Classes) != len(base.Classes) {
				t.Fatalf("ordering %v: class count changed", ord)
			}
			for i := range o.Classes {
				if len(o.Classes[i]) != len(base.Classes[i]) {
					t.Errorf("ordering %v: class %d size changed", ord, i)
				}
				if base.Keys != nil && base.Keys[i].Compare(o.Keys[i]) != 0 {
					t.Errorf("ordering %v: class %d key changed under relabeling", ord, i)
				}
				// The class as a physical set must be the p-image.
				want := map[int]bool{}
				for _, v := range base.Classes[i] {
					want[p[v]] = true
				}
				for _, v := range o.Classes[i] {
					if !want[v] {
						t.Errorf("ordering %v: class %d not the relabeled image", ord, i)
					}
				}
			}
		}
	}
}

func TestNoTiesForEquivalenceClasses(t *testing.T) {
	// Lemma 3.1: distinct equivalence classes always get distinct keys.
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(6)
		g := graph.RandomConnected(n, rng.Intn(5), rng.Int63())
		colors := make([]int, n)
		for k := 0; k < 1+rng.Intn(3); k++ {
			colors[rng.Intn(n)] = 1
		}
		for _, ord := range []Ordering{Direct, Hairs} {
			o := ComputeAndOrder(g, colors, ord)
			if o.Tied {
				t.Errorf("trial %d ordering %v: tie between distinct equivalence classes (classes %v)",
					trial, ord, o.Classes)
			}
		}
	}
}

func TestHairLength(t *testing.T) {
	// A path P4 has hairs of length 3 from both ends... each endpoint
	// walk: 0-1-2-3 is maximal with interior degree 2, so max hair length
	// is 3.
	if got := maxHairLength(graph.Path(4)); got != 3 {
		t.Errorf("P4 hair length %d, want 3", got)
	}
	// A cycle has no degree-1 node: hair length 0.
	if got := maxHairLength(graph.Cycle(5)); got != 0 {
		t.Errorf("C5 hair length %d, want 0", got)
	}
	// A star K_{1,3}: hairs of length 1.
	if got := maxHairLength(graph.Star(3)); got != 1 {
		t.Errorf("star hair length %d, want 1", got)
	}
	// The bound is g's, and it is every surrounding's: each surrounding
	// has g as its underlying multigraph. Checked against the hair length
	// of each surrounding's own arcs on random multigraphs with loops and
	// parallel edges, disconnected ones included.
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(9)
		b := graph.NewBuilder(n)
		for e := rng.Intn(2 * n); e > 0; e-- {
			x := rng.Intn(n)
			y := x
			if rng.Intn(4) > 0 {
				y = rng.Intn(n)
			}
			b.AddEdge(x, y)
		}
		g := b.Graph()
		want := maxHairLength(g)
		for u := 0; u < n; u++ {
			if got := arcHairLength(n, surroundingArcs(nil, g.EdgeEndpoints(), g.BFSDist(u))); got != want {
				t.Fatalf("trial %d: S(%d) has hair length %d, g has %d", trial, u, got, want)
			}
		}
	}
}

// arcHairLength is the maximum hair length of the underlying undirected
// multigraph of a digraph on n nodes, read off its arc multiplicities: an
// edge {x, y} has the multiplicity of its heavier direction, and a loop
// counts 2 toward its node's degree.
func arcHairLength(n int, arcs [][2]int) int {
	adj := make([][]int, n)
	for x := range adj {
		adj[x] = make([]int, n)
	}
	for _, a := range arcs {
		adj[a[0]][a[1]]++
	}
	mult := func(x, y int) int { return max(adj[x][y], adj[y][x]) }
	deg := make([]int, n)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if x == y {
				deg[x] += 2 * adj[x][x]
			} else {
				deg[x] += mult(x, y)
			}
		}
	}
	best := 0
	for x := 0; x < n; x++ {
		if deg[x] != 1 {
			continue
		}
		length, prev, cur := 0, -1, x
		for {
			next := -1
			for y := 0; y < n && next < 0; y++ {
				if y != cur && y != prev && mult(cur, y) > 0 {
					next = y
				}
			}
			if next < 0 {
				break
			}
			length++
			if deg[next] != 2 {
				break
			}
			prev, cur = cur, next
		}
		best = max(best, length)
	}
	return best
}

func TestHatTransformDistinguishesColorings(t *testing.T) {
	// Two different bicolorings of C6 must hat-transform to non-isomorphic
	// uni-colored digraphs.
	g := graph.Cycle(6)
	ka := mustHairKey(t, g, blackCols(6, 0, 3))
	kb := mustHairKey(t, g, blackCols(6, 0, 2))
	if ka.Compare(kb) == 0 {
		t.Error("hair keys fail to distinguish different bicolorings")
	}
	// And isomorphic bicolorings must agree.
	kc := mustHairKey(t, g, blackCols(6, 1, 4)) // rotation of {0,3}
	if ka.Compare(kc) != 0 {
		t.Error("hair keys differ on isomorphic bicolorings")
	}
	// A node gets one tail per unit of weight, so weights above 1 stay
	// visible: P3 weighted {2, 0, 1} has three classes and none may tie.
	p3 := graph.Path(3)
	if o := ComputeAndOrder(p3, []int{2, 0, 1}, Hairs); o.Tied {
		t.Errorf("weights {2, 0, 1}: classes %v tie under the hair order", o.Classes)
	}
	kw := func(w ...int) Key { return mustHairKey(t, p3, w) }
	if kw(2, 0, 1).Compare(kw(1, 0, 1)) == 0 {
		t.Error("hair keys fail to distinguish weight 2 from weight 1")
	}
	if kw(2, 0, 1).Compare(kw(1, 0, 2)) != 0 {
		t.Error("hair keys differ on mirrored weightings")
	}
}

func TestKeyCompareTotalOrder(t *testing.T) {
	ks := []Key{
		{N: 3, Hair: 0, Word: []byte{1}},
		{N: 3, Hair: 1, Word: []byte{0}},
		{N: 4, Hair: 0, Word: []byte{0}},
		{N: 3, Hair: 0, Word: []byte{2}},
	}
	for i := range ks {
		for j := range ks {
			cij, cji := ks[i].Compare(ks[j]), ks[j].Compare(ks[i])
			if cij != -cji {
				t.Fatalf("antisymmetry violated at %d,%d", i, j)
			}
			if i == j && cij != 0 {
				t.Fatalf("reflexivity violated at %d", i)
			}
		}
	}
	// Transitivity spot check on a sorted chain.
	if !(ks[0].Compare(ks[3]) < 0 && ks[3].Compare(ks[1]) < 0 && ks[1].Compare(ks[2]) < 0) {
		t.Fatal("expected chain order (3,0,w1) < (3,0,w2) < (3,1,*) < (4,*,*)")
	}
}

func TestGCDHelper(t *testing.T) {
	o := &Ordered{Classes: [][]int{{0, 1}, {2, 3, 4, 5}, {6, 7}}}
	if o.GCD() != 2 {
		t.Fatalf("gcd %d", o.GCD())
	}
	o = &Ordered{Classes: [][]int{{0, 1, 2}, {3, 4}}}
	if o.GCD() != 1 {
		t.Fatalf("gcd %d", o.GCD())
	}
}

// TestHairOrderOnMultigraphs runs the hair order on graphs whose loops (one
// arc (x, x) in a surrounding) and parallel edges (arc multiplicities)
// reach the hair word: Figure 2(c) with a home, the twin blow-up of a cycle
// with every edge doubled (isobench's twin kernel, on C8 rather than C32,
// whose hair order takes seconds), and random multigraphs with loops. Under
// relabeling the keys and the classes, as sets, must not change; no two
// classes of one color group may tie; and the classes must be Direct's.
func TestHairOrderOnMultigraphs(t *testing.T) {
	type instance struct {
		name   string
		g      *graph.Graph
		colors []int
	}
	twins := graph.BlowupCycle(8, 4)
	b := graph.NewBuilder(twins.N())
	for _, e := range twins.EdgeEndpoints() {
		b.AddEdge(e[0], e[1])
		b.AddEdge(e[0], e[1])
	}
	cases := []instance{
		{"fig2c-home-x", graph.Fig2c(), blackCols(3, 0)},
		{"fig2c-home-z", graph.Fig2c(), blackCols(3, 2)},
		{"twin-blowup-c8", b.Graph(), blackCols(32, 0, 1, 16)},
	}
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(9)
		rb := graph.NewBuilder(n)
		for v := 1; v < n; v++ {
			rb.AddEdge(rng.Intn(v), v)
		}
		for e := rng.Intn(n + 2); e > 0; e-- {
			x := rng.Intn(n)
			if rng.Intn(3) == 0 {
				rb.AddEdge(x, x)
			} else {
				rb.AddEdge(x, rng.Intn(n))
			}
		}
		colors := make([]int, n)
		for k := 0; k <= rng.Intn(3); k++ {
			colors[rng.Intn(n)] = 1
		}
		cases = append(cases, instance{"random", rb.Graph(), colors})
	}
	for ci, c := range cases {
		n := c.g.N()
		o := ComputeAndOrder(c.g, c.colors, Hairs)
		if o.Tied {
			t.Errorf("%s (%d): classes %v tie", c.name, ci, o.Classes)
		}
		if direct := ComputeAndOrder(c.g, c.colors, Direct).Classes; !reflect.DeepEqual(classSet(o.Classes), classSet(direct)) {
			t.Errorf("%s (%d): hair classes %v are not Direct's %v", c.name, ci, o.Classes, direct)
		}
		p := rng.Perm(n)
		h, err := c.g.Relabel(p)
		if err != nil {
			t.Fatal(err)
		}
		hcols := make([]int, n)
		for v, col := range c.colors {
			hcols[p[v]] = col
		}
		r := ComputeAndOrder(h, hcols, Hairs)
		if len(r.Keys) != len(o.Keys) {
			t.Fatalf("%s (%d): %d keys after relabeling, %d before", c.name, ci, len(r.Keys), len(o.Keys))
		}
		for i := range o.Keys {
			if o.Keys[i].Compare(r.Keys[i]) != 0 {
				t.Errorf("%s (%d): key %d changed under relabeling", c.name, ci, i)
			}
		}
		for i, cl := range o.Classes {
			image := make([]int, len(cl))
			for j, v := range cl {
				image[j] = p[v]
			}
			if !reflect.DeepEqual(classSet([][]int{image}), classSet(r.Classes[i:i+1])) {
				t.Errorf("%s (%d): class %d after relabeling is %v, not the image of %v", c.name, ci, i, r.Classes[i], cl)
			}
		}
	}
}

// classSet returns the classes as a set of sorted member lists, so two
// partitions compare equal whatever order they list their classes and
// members in.
func classSet(classes [][]int) map[string]bool {
	set := make(map[string]bool, len(classes))
	for _, cl := range classes {
		s := slices.Clone(cl)
		slices.Sort(s)
		set[fmt.Sprint(s)] = true
	}
	return set
}
