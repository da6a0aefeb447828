package view

import (
	"testing"

	"repro/internal/graph"
)

func TestCycleAllSameView(t *testing.T) {
	// A cycle with the orientation labeling (1 clockwise, 2 counter-
	// clockwise) has a single view class: σ_ℓ = n.
	for _, n := range []int{3, 5, 8} {
		g := graph.Cycle(n)
		l := graph.OrientedCycleLabeling(n)
		cl, err := ComputeClasses(g, l, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cl.Count() != 1 {
			t.Errorf("C%d oriented: %d view classes, want 1", n, cl.Count())
		}
		if s, ok := cl.Symmetricity(); !ok || s != n {
			t.Errorf("C%d oriented: σ=%d ok=%v, want %d", n, s, ok, n)
		}
	}
}

func TestCycleWithBlackNodeBreaksSymmetry(t *testing.T) {
	n := 6
	g := graph.Cycle(n)
	l := graph.OrientedCycleLabeling(n)
	colors := make([]int, n)
	colors[0] = 1
	cl, err := ComputeClasses(g, l, colors)
	if err != nil {
		t.Fatal(err)
	}
	// One black node + orientation makes all views distinct.
	if cl.Count() != n {
		t.Errorf("views: %d classes, want %d", cl.Count(), n)
	}
	if s, ok := cl.Symmetricity(); !ok || s != 1 {
		t.Errorf("σ=%d ok=%v, want 1", s, ok)
	}
}

func TestAntipodalBlacksKeepSymmetry(t *testing.T) {
	// C6 with blacks at 0 and 3, oriented labeling: rotation by 3 is a
	// label- and color-preserving automorphism, so every class has size 2.
	g := graph.Cycle(6)
	l := graph.OrientedCycleLabeling(6)
	colors := []int{1, 0, 0, 1, 0, 0}
	cl, err := ComputeClasses(g, l, colors)
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := cl.Symmetricity(); !ok || s != 2 {
		t.Errorf("σ=%d ok=%v, want 2 (sizes %v)", s, ok, cl.Sizes())
	}
}

func TestPathViewsQuantitative(t *testing.T) {
	// Figure 2(a): path x-y-z with ℓx(xy)=1, ℓy(xy)=1, ℓy(yz)=2, ℓz(yz)=1.
	// All three views are different.
	g := graph.Path(3)
	// Ports: x(0): p0->y. y(1): p0->x, p1->z. z(2): p0->y.
	l := graph.EdgeLabeling{{1}, {1, 2}, {1}}
	cl, err := ComputeClasses(g, l, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Count() != 3 {
		t.Errorf("Figure 2(a): %d view classes, want 3 (all distinct)", cl.Count())
	}
}

func TestFig2cAllViewsEqualDespiteRigidity(t *testing.T) {
	// Figure 2(c): the 3-node multigraph where all nodes have the same view
	// although no nontrivial label-preserving automorphism exists.
	g := graph.Fig2c()
	l := Fig2cLabeling()
	if err := l.Validate(g); err != nil {
		t.Fatal(err)
	}
	cl, err := ComputeClasses(g, l, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Count() != 1 {
		t.Fatalf("Figure 2(c): %d view classes %v, want 1", cl.Count(), cl.Members)
	}
	// Cross-check with explicit trees to a healthy depth.
	tx := BuildTree(g, l, nil, 0, 5)
	ty := BuildTree(g, l, nil, 1, 5)
	tz := BuildTree(g, l, nil, 2, 5)
	if !tx.Equal(ty) || !ty.Equal(tz) {
		t.Error("explicit depth-5 views differ, refinement said equal")
	}
}

// Fig2cLabeling returns the paper's Figure 2(c) port labels for graph.Fig2c:
// ring edges labeled 1 clockwise / 2 counterclockwise, mess edges
// ℓx(e1)=ℓy(e2)=3, ℓx(e2)=ℓy(e1)=4, loop extremities 3 and 4.
func Fig2cLabeling() graph.EdgeLabeling {
	return graph.EdgeLabeling{
		{1, 2, 3, 4}, // x: ring->y, ring->z, e1, e2
		{2, 1, 4, 3}, // y: ring->x, ring->z, e1, e2
		{2, 1, 3, 4}, // z: ring->y, ring->x, loop, loop
	}
}

// classesAtDepth is the coarser partition by views truncated at depth, on
// all-white nodes: the refinement ComputeClasses runs, stopped early.
func classesAtDepth(g *graph.Graph, l graph.EdgeLabeling, depth int) *Classes {
	return fromAssignment(depthClasses(g, l, nil, depth))
}

func TestNorrisDepthSufficient(t *testing.T) {
	// Classes at depth n-1 must equal the stable classes, and must be
	// strictly coarser at depth 0 for graphs with asymmetry.
	cases := []struct {
		g *graph.Graph
		l graph.EdgeLabeling
	}{
		{graph.Path(5), graph.PortLabeling(graph.Path(5))},
		{graph.Cycle(7), graph.OrientedCycleLabeling(7)},
		{graph.Petersen(), graph.PortLabeling(graph.Petersen())},
		{graph.Hypercube(3), graph.PortLabeling(graph.Hypercube(3))},
		{graph.RandomConnected(10, 5, 99), graph.PortLabeling(graph.RandomConnected(10, 5, 99))},
	}
	for i, c := range cases {
		stable, err := ComputeClasses(c.g, c.l, nil)
		if err != nil {
			t.Fatal(err)
		}
		atN1 := classesAtDepth(c.g, c.l, c.g.N()-1)
		if stable.Count() != atN1.Count() {
			t.Errorf("case %d: depth n-1 classes %d != stable %d", i, atN1.Count(), stable.Count())
		}
		for v := range stable.Class {
			if stable.Class[v] != atN1.Class[v] {
				t.Errorf("case %d: node %d classed differently", i, v)
				break
			}
		}
	}
}

func TestTreeMatchesRefinement(t *testing.T) {
	// On small graphs, depth-(n-1) explicit trees must induce the same
	// partition as refinement.
	gs := []*graph.Graph{graph.Path(4), graph.Cycle(5), graph.Star(3), graph.Complete(4)}
	for gi, g := range gs {
		l := graph.PortLabeling(g)
		colors := make([]int, g.N())
		colors[0] = 1
		cl, err := ComputeClasses(g, l, colors)
		if err != nil {
			t.Fatal(err)
		}
		depth := g.N() - 1
		render := make([]string, g.N())
		for v := 0; v < g.N(); v++ {
			render[v] = BuildTree(g, l, colors, v, depth).String()
		}
		for u := 0; u < g.N(); u++ {
			for v := u + 1; v < g.N(); v++ {
				same := cl.Class[u] == cl.Class[v]
				if (render[u] == render[v]) != same {
					t.Errorf("graph %d: nodes %d,%d tree-equal=%v refinement=%v",
						gi, u, v, render[u] == render[v], same)
				}
			}
		}
	}
}

func TestClassesAtDepthZero(t *testing.T) {
	// Depth 0 groups by (color, degree) only.
	g := graph.Star(3)
	cl := classesAtDepth(g, graph.PortLabeling(g), 0)
	if cl.Count() != 2 {
		t.Errorf("depth-0 classes %d, want 2 (center vs leaves)", cl.Count())
	}
}

func TestNorrisDepthCanBeNecessary(t *testing.T) {
	// Views can genuinely require deep truncations: on a long path with the
	// port labeling, the two central nodes are only distinguished from
	// their outer neighbors after the wave from the endpoints has had time
	// to reach them — depth-1 classes are strictly coarser than the stable
	// classes, and refinement takes Θ(n) rounds in the worst case.
	n := 12
	g := graph.Path(n)
	l := graph.PortLabeling(g)
	shallow := classesAtDepth(g, l, 1)
	stable, err := ComputeClasses(g, l, nil)
	if err != nil {
		t.Fatal(err)
	}
	if shallow.Count() >= stable.Count() {
		t.Fatalf("depth-1 classes (%d) should be strictly coarser than stable (%d)",
			shallow.Count(), stable.Count())
	}
	// Find the first depth at which the partition stabilizes; it must be
	// at most n-1 (Norris) and, for the path, grow with n.
	stabilized := -1
	for k := 0; k < n; k++ {
		if classesAtDepth(g, l, k).Count() == stable.Count() {
			stabilized = k
			break
		}
	}
	if stabilized < 0 || stabilized > n-1 {
		t.Fatalf("stabilization depth %d out of the Norris bound", stabilized)
	}
	if stabilized < n/2-1 {
		t.Fatalf("stabilization depth %d suspiciously small for P%d", stabilized, n)
	}
}

func TestBoldiVignaDiameterDepth(t *testing.T) {
	// The paper cites Boldi–Vigna: views need only be compared to the
	// diameter. Check on the suite that classes at depth diam(G) already
	// equal the stable classes.
	cases := []*graph.Graph{
		graph.Cycle(8), graph.Petersen(), graph.Hypercube(3), graph.Path(7),
		graph.Grid(3, 3), graph.RandomConnected(11, 5, 77),
	}
	for _, g := range cases {
		l := graph.PortLabeling(g)
		stable, err := ComputeClasses(g, l, nil)
		if err != nil {
			t.Fatal(err)
		}
		atDiam := classesAtDepth(g, l, g.Diameter())
		if stable.Count() != atDiam.Count() {
			t.Errorf("%v: depth-diameter classes %d != stable %d",
				g, atDiam.Count(), stable.Count())
		}
	}
}
