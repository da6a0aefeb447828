package order

import (
	"math/rand"
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

func TestSurroundingBasics(t *testing.T) {
	// P3 from the middle: arcs point outward from node 1.
	g := graph.Path(3)
	s := Surrounding(g, nil, 1)
	if s.Adj[1][0] != 1 || s.Adj[1][2] != 1 {
		t.Error("middle node should have outward arcs")
	}
	if s.Adj[0][1] != 0 || s.Adj[2][1] != 0 {
		t.Error("no inward arcs expected at the root")
	}
	// From an end: chain of arcs.
	s = Surrounding(g, nil, 0)
	if s.Adj[0][1] != 1 || s.Adj[1][2] != 1 || s.Adj[1][0] != 0 || s.Adj[2][1] != 0 {
		t.Error("surrounding from end should be a directed path")
	}
}

func TestSurroundingRootUniqueInDegreeZero(t *testing.T) {
	gs := []*graph.Graph{
		graph.Cycle(6), graph.Petersen(), graph.Hypercube(3),
		graph.Star(4), graph.RandomConnected(10, 6, 21),
	}
	for _, g := range gs {
		for u := 0; u < g.N(); u++ {
			s := Surrounding(g, nil, u)
			for v := 0; v < g.N(); v++ {
				in := 0
				for x := 0; x < g.N(); x++ {
					if x != v {
						in += s.Adj[x][v]
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
	s := Surrounding(g, nil, 0)
	if s.Adj[1][2] != 1 || s.Adj[2][1] != 0 {
		t.Error("edge {1,2} should be directed 1->2")
	}
	// C5 from 0: nodes 2,3 both at distance 2, edge {2,3} bidirectional.
	g = graph.Cycle(5)
	s = Surrounding(g, nil, 0)
	if s.Adj[2][3] != 1 || s.Adj[3][2] != 1 {
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
		orbits := iso.Orbits(iso.FromGraph(c.g, c.colors))
		classOf := make([]int, c.g.N())
		for i, o := range orbits {
			for _, v := range o {
				classOf[v] = i
			}
		}
		words := make([][]byte, c.g.N())
		for v := 0; v < c.g.N(); v++ {
			words[v] = iso.CanonicalWord(Surrounding(c.g, c.colors, v))
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
	// A path P4 as a symmetric digraph has hairs of length 3 from both
	// ends... each endpoint walk: 0-1-2-3 is maximal with interior degree
	// 2, so max hair length is 3.
	g := graph.Path(4)
	c := iso.FromGraph(g, nil)
	if got := maxHairLength(c); got != 3 {
		t.Errorf("P4 hair length %d, want 3", got)
	}
	// A cycle has no degree-1 node: hair length 0.
	if got := maxHairLength(iso.FromGraph(graph.Cycle(5), nil)); got != 0 {
		t.Errorf("C5 hair length %d, want 0", got)
	}
	// A star K_{1,3}: hairs of length 1.
	if got := maxHairLength(iso.FromGraph(graph.Star(3), nil)); got != 1 {
		t.Errorf("star hair length %d, want 1", got)
	}
}

func TestHatTransformDistinguishesColorings(t *testing.T) {
	// Two different bicolorings of C6 must hat-transform to non-isomorphic
	// uni-colored digraphs.
	g := graph.Cycle(6)
	a := iso.FromGraph(g, blackCols(6, 0, 3))
	b := iso.FromGraph(g, blackCols(6, 0, 2))
	ka := mustHairKey(t, a)
	kb := mustHairKey(t, b)
	if ka.Compare(kb) == 0 {
		t.Error("hair keys fail to distinguish different bicolorings")
	}
	// And isomorphic bicolorings must agree.
	c := iso.FromGraph(g, blackCols(6, 1, 4)) // rotation of {0,3}
	kc := mustHairKey(t, c)
	if ka.Compare(kc) != 0 {
		t.Error("hair keys differ on isomorphic bicolorings")
	}
	// A node gets one tail per unit of weight, so weights above 1 stay
	// visible: P3 weighted {2, 0, 1} has three classes and none may tie.
	p3 := graph.Path(3)
	if o := ComputeAndOrder(p3, []int{2, 0, 1}, Hairs); o.Tied {
		t.Errorf("weights {2, 0, 1}: classes %v tie under the hair order", o.Classes)
	}
	kw := func(w ...int) Key { return mustHairKey(t, iso.FromGraph(p3, w)) }
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
