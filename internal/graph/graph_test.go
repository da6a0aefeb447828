package graph

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(3)
	e0 := b.AddEdge(0, 1)
	e1 := b.AddEdge(1, 2)
	g := b.Graph()
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("got n=%d m=%d, want 3, 2", g.N(), g.M())
	}
	if e0 != 0 || e1 != 1 {
		t.Fatalf("edge ids %d %d, want 0 1", e0, e1)
	}
	if g.Deg(0) != 1 || g.Deg(1) != 2 || g.Deg(2) != 1 {
		t.Fatalf("degrees %d %d %d", g.Deg(0), g.Deg(1), g.Deg(2))
	}
}

func TestTwinConsistency(t *testing.T) {
	gs := map[string]*Graph{
		"path5":    Path(5),
		"cycle6":   Cycle(6),
		"K4":       Complete(4),
		"K23":      CompleteBipartite(2, 3),
		"star4":    Star(4),
		"Q3":       Hypercube(3),
		"torus33":  Torus(3, 3),
		"grid23":   Grid(2, 3),
		"circ82":   Circulant(8, []int{1, 2}),
		"circ84":   Circulant(8, []int{1, 4}),
		"petersen": Petersen(),
		"ccc3":     CCC(3),
		"prism4":   Prism(4),
		"wheel5":   Wheel(5),
		"mk":       MoebiusKantor(),
		"fig2c":    Fig2c(),
		"random":   RandomConnected(12, 8, 42),
	}
	for name, g := range gs {
		for v := 0; v < g.N(); v++ {
			for p, h := range g.Ports(v) {
				back := g.Port(h.To, h.Twin)
				if back.To != v || back.Twin != p || back.Edge != h.Edge {
					t.Errorf("%s: twin of (%d,%d) inconsistent: %+v -> %+v", name, v, p, h, back)
				}
			}
		}
		// Handshake: sum of degrees = 2m.
		total := 0
		for v := 0; v < g.N(); v++ {
			total += g.Deg(v)
		}
		if total != 2*g.M() {
			t.Errorf("%s: handshake violated: sum deg=%d, 2m=%d", name, total, 2*g.M())
		}
	}
}

func TestLoop(t *testing.T) {
	b := NewBuilder(1)
	b.AddEdge(0, 0)
	g := b.Graph()
	if g.Deg(0) != 2 {
		t.Fatalf("loop degree = %d, want 2", g.Deg(0))
	}
	h0, h1 := g.Port(0, 0), g.Port(0, 1)
	if h0.To != 0 || h1.To != 0 || h0.Twin != 1 || h1.Twin != 0 || h0.Edge != h1.Edge {
		t.Fatalf("loop ports wrong: %+v %+v", h0, h1)
	}
	if g.IsSimple() {
		t.Fatal("graph with loop reported simple")
	}
}

func TestGeneratorShapes(t *testing.T) {
	cases := []struct {
		name    string
		g       *Graph
		n, m    int
		regular int // -1 if not regular
		diam    int // -1 to skip
	}{
		{"path4", Path(4), 4, 3, -1, 3},
		{"cycle5", Cycle(5), 5, 5, 2, 2},
		{"cycle6", Cycle(6), 6, 6, 2, 3},
		{"K4", Complete(4), 4, 6, 3, 1},
		{"K33", CompleteBipartite(3, 3), 6, 9, 3, 2},
		{"star5", Star(5), 6, 5, -1, 2},
		{"Q3", Hypercube(3), 8, 12, 3, 3},
		{"Q4", Hypercube(4), 16, 32, 4, 4},
		{"torus34", Torus(3, 4), 12, 24, 4, 3},
		{"petersen", Petersen(), 10, 15, 3, 2},
		{"ccc3", CCC(3), 24, 36, 3, 6},
		{"prism5", Prism(5), 10, 15, 3, 3},
		{"mk", MoebiusKantor(), 16, 24, 3, 4},
		{"circ10_12", Circulant(10, []int{1, 2}), 10, 20, 4, 3},
		{"circ6_3", Circulant(6, []int{3}), 6, 3, 1, -1},
	}
	for _, c := range cases {
		if c.g.N() != c.n || c.g.M() != c.m {
			t.Errorf("%s: n=%d m=%d, want %d %d", c.name, c.g.N(), c.g.M(), c.n, c.m)
		}
		reg, d := c.g.IsRegular()
		if c.regular >= 0 {
			if !reg || d != c.regular {
				t.Errorf("%s: regularity (%v,%d), want (true,%d)", c.name, reg, d, c.regular)
			}
		} else if c.name != "path4" && c.name != "star5" && reg {
			t.Errorf("%s: unexpectedly regular", c.name)
		}
		if c.diam >= 0 {
			if got := c.g.Diameter(); got != c.diam {
				t.Errorf("%s: diameter %d, want %d", c.name, got, c.diam)
			}
		}
	}
}

func TestConnectivity(t *testing.T) {
	if !Cycle(7).IsConnected() {
		t.Error("C7 should be connected")
	}
	// Two disjoint edges.
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	if b.Graph().IsConnected() {
		t.Error("disjoint union reported connected")
	}
	if Circulant(6, []int{3}).IsConnected() {
		t.Error("perfect matching C6(3) reported connected")
	}
}

func TestBFSDist(t *testing.T) {
	g := Cycle(6)
	d := g.BFSDist(0)
	want := []int{0, 1, 2, 3, 2, 1}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("dist[%d]=%d, want %d", i, d[i], want[i])
		}
	}
}

func TestNeighborSet(t *testing.T) {
	g := Fig2c()
	// x=0 neighbors: y (ring + 2 parallel) and z (ring) -> {1, 2}.
	ns := g.NeighborSet(0)
	if len(ns) != 2 || ns[0] != 1 || ns[1] != 2 {
		t.Fatalf("NeighborSet(0) = %v, want [1 2]", ns)
	}
	// z=2 has a loop which must not appear in its neighbor set.
	ns = g.NeighborSet(2)
	if len(ns) != 2 || ns[0] != 0 || ns[1] != 1 {
		t.Fatalf("NeighborSet(2) = %v, want [0 1]", ns)
	}
}

func TestRelabelPreservesStructure(t *testing.T) {
	g := Petersen()
	perm := rand.New(rand.NewSource(7)).Perm(g.N())
	h, err := g.Relabel(perm)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatalf("relabel changed size")
	}
	for v := 0; v < g.N(); v++ {
		if g.Deg(v) != h.Deg(perm[v]) {
			t.Fatalf("degree of %d changed under relabel", v)
		}
		for p, hf := range g.Ports(v) {
			nh := h.Port(perm[v], p)
			if nh.To != perm[hf.To] {
				t.Fatalf("edge (%d,%d) not preserved", v, hf.To)
			}
		}
	}
	// Twins remain consistent.
	for v := 0; v < h.N(); v++ {
		for p, hf := range h.Ports(v) {
			back := h.Port(hf.To, hf.Twin)
			if back.To != v || back.Twin != p {
				t.Fatalf("twin broken after relabel at (%d,%d)", v, p)
			}
		}
	}
}

func TestRelabelRejectsBadPerm(t *testing.T) {
	g := Path(3)
	if _, err := g.Relabel([]int{0, 0, 1}); err == nil {
		t.Error("duplicate entries accepted")
	}
	if _, err := g.Relabel([]int{0, 1}); err == nil {
		t.Error("short permutation accepted")
	}
	if _, err := g.Relabel([]int{0, 1, 5}); err == nil {
		t.Error("out-of-range entry accepted")
	}
}

func TestRandomConnectedIsConnectedAndDeterministic(t *testing.T) {
	if err := quick.Check(func(n8 uint8, extra8 uint8, seed int64) bool {
		n := int(n8%20) + 2
		extra := int(extra8 % 10)
		g1 := RandomConnected(n, extra, seed)
		g2 := RandomConnected(n, extra, seed)
		if !g1.IsConnected() || !g1.IsSimple() {
			return false
		}
		if g1.N() != g2.N() || g1.M() != g2.M() {
			return false
		}
		for v := 0; v < g1.N(); v++ {
			if g1.Deg(v) != g2.Deg(v) {
				return false
			}
			for p, h := range g1.Ports(v) {
				if g2.Port(v, p) != h {
					return false
				}
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestEdgeEndpoints(t *testing.T) {
	g := Fig2c()
	eps := g.EdgeEndpoints()
	if len(eps) != 6 {
		t.Fatalf("edge count %d, want 6", len(eps))
	}
	if eps[5] != [2]int{2, 2} {
		t.Fatalf("loop endpoints %v, want [2 2]", eps[5])
	}
	count01 := 0
	for _, e := range eps {
		if e == [2]int{0, 1} {
			count01++
		}
	}
	if count01 != 3 {
		t.Fatalf("x-y multiplicity %d, want 3", count01)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := Cycle(4)
	h := g.Clone()
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatal("clone size mismatch")
	}
	for v := 0; v < g.N(); v++ {
		for p := range g.Ports(v) {
			if g.Port(v, p) != h.Port(v, p) {
				t.Fatal("clone content mismatch")
			}
		}
	}
}

func TestHasEdge(t *testing.T) {
	g := Petersen()
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 5) || g.HasEdge(0, 2) {
		t.Error("Petersen adjacency wrong")
	}
	if !g.HasEdge(5, 7) || g.HasEdge(5, 6) {
		t.Error("Petersen inner pentagram wrong")
	}
}

func TestToDOT(t *testing.T) {
	g := Cycle(4)
	dot := g.ToDOT("c4", []int{1, 0, 2, 0})
	if !strings.Contains(dot, "graph \"c4\"") {
		t.Error("missing header")
	}
	for v := 0; v < 4; v++ {
		if !strings.Contains(dot, fmt.Sprintf("n%d", v)) {
			t.Errorf("missing node %d", v)
		}
	}
	if strings.Count(dot, " -- ") != 4 {
		t.Errorf("edge lines: %d, want 4", strings.Count(dot, " -- "))
	}
	if !strings.Contains(dot, "(x2)") {
		t.Error("missing weight annotation")
	}
}
