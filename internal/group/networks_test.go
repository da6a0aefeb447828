package group

import (
	"bytes"
	"testing"

	"repro/internal/graph"
	"repro/internal/iso"
)

// isoGraphs reports whether a and b are isomorphic, by their canonical
// words.
func isoGraphs(a, b *graph.Graph) bool {
	word := func(g *graph.Graph) []byte { return iso.CanonicalSparse(iso.SparseFromGraph(g, nil)).Word }
	return a.N() == b.N() && bytes.Equal(word(a), word(b))
}

func TestSemidirectGroupAxioms(t *testing.T) {
	g := SemidirectZ2Zd(3)
	if g.Order() != 24 {
		t.Fatalf("order %d, want 24", g.Order())
	}
	if g.IsAbelian() {
		t.Fatal("Z2^3:Z3 should not be abelian")
	}
	// Re-validate the table through FromTable (associativity etc.).
	n := g.Order()
	mul := make([][]int, n)
	for a := 0; a < n; a++ {
		mul[a] = make([]int, n)
		for b := 0; b < n; b++ {
			mul[a][b] = g.Mul(a, b)
		}
	}
	if _, err := FromTable(g.Name(), mul, nil); err != nil {
		t.Fatalf("invalid group: %v", err)
	}
}

func TestCCCCayleyMatchesGraph(t *testing.T) {
	c, err := CCCCayley(3)
	if err != nil {
		t.Fatal(err)
	}
	if !isoGraphs(c.G, graph.CCC(3)) {
		t.Error("Cay(Z2^3:Z3, {(0,±1),(e0,0)}) not isomorphic to CCC(3)")
	}
	if c.Degree() != 3 {
		t.Errorf("CCC degree %d, want 3", c.Degree())
	}
}

func TestWrappedButterflyCayleyMatchesGraph(t *testing.T) {
	c, err := WrappedButterflyCayley(3)
	if err != nil {
		t.Fatal(err)
	}
	if !isoGraphs(c.G, graph.WrappedButterfly(3)) {
		t.Error("Cayley wrapped butterfly not isomorphic to WrappedButterfly(3)")
	}
	if c.Degree() != 4 {
		t.Errorf("WB degree %d, want 4", c.Degree())
	}
}

func TestStarCayleyMatchesGraph(t *testing.T) {
	for _, k := range []int{3, 4} {
		c, err := StarCayley(k)
		if err != nil {
			t.Fatal(err)
		}
		if !isoGraphs(c.G, graph.StarGraph(k)) {
			t.Errorf("StarCayley(%d) not isomorphic to StarGraph(%d)", k, k)
		}
	}
	// ST(3) is the 6-cycle.
	c, err := StarCayley(3)
	if err != nil {
		t.Fatal(err)
	}
	if !isoGraphs(c.G, graph.Cycle(6)) {
		t.Error("ST(3) should be C6")
	}
}

func TestPancakeCayleyMatchesGraph(t *testing.T) {
	for _, k := range []int{3, 4} {
		c, err := PancakeCayley(k)
		if err != nil {
			t.Fatal(err)
		}
		if !isoGraphs(c.G, graph.Pancake(k)) {
			t.Errorf("PancakeCayley(%d) not isomorphic to Pancake(%d)", k, k)
		}
	}
	// P3 is also the 6-cycle.
	c, _ := PancakeCayley(3)
	if !isoGraphs(c.G, graph.Cycle(6)) {
		t.Error("Pancake(3) should be C6")
	}
}

func TestNetworkShapes(t *testing.T) {
	st4 := graph.StarGraph(4)
	if st4.N() != 24 || st4.M() != 36 {
		t.Errorf("ST(4): n=%d m=%d, want 24, 36", st4.N(), st4.M())
	}
	if reg, d := st4.IsRegular(); !reg || d != 3 {
		t.Error("ST(4) should be cubic")
	}
	if !st4.IsConnected() {
		t.Error("ST(4) disconnected")
	}
	pk4 := graph.Pancake(4)
	if pk4.N() != 24 || pk4.M() != 36 {
		t.Errorf("Pancake(4): n=%d m=%d, want 24, 36", pk4.N(), pk4.M())
	}
	wb3 := graph.WrappedButterfly(3)
	if wb3.N() != 24 || wb3.M() != 48 {
		t.Errorf("WB(3): n=%d m=%d, want 24, 48", wb3.N(), wb3.M())
	}
	if wb3.Diameter() <= 0 {
		t.Error("WB(3) should be connected")
	}
}

func TestNaturalLabelingOnNetworkCayleys(t *testing.T) {
	cccs, err := CCCCayley(3)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := WrappedButterflyCayley(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Cayley{cccs, wb} {
		for v := 0; v < c.G.N(); v++ {
			for p, h := range c.G.Ports(v) {
				s := c.PortGen[v][p]
				if c.Group.Mul(v, s) != h.To {
					t.Fatalf("%s: natural labeling broken at (%d,%d)", c.Group.Name(), v, p)
				}
			}
		}
	}
}
