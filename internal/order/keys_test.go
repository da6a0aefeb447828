package order

import (
	"context"
	"testing"

	"repro/internal/graph"
)

// TestClassKeysMatchFreshSurroundings: after the hair order sorts the
// classes, each class's key must still be the key of its own surrounding,
// built on its own.
func TestClassKeysMatchFreshSurroundings(t *testing.T) {
	cases := []struct {
		name   string
		g      *graph.Graph
		colors []int
	}{
		{"c12-blacks", graph.Cycle(12), blackColors(12, []int{0, 4, 8})},
		{"petersen", graph.Petersen(), blackColors(10, []int{0})},
		{"q4", graph.Hypercube(4), nil},
		{"torus3x4", graph.Torus(3, 4), blackColors(12, []int{0, 6})},
		{"star6", graph.Star(6), blackColors(7, []int{1, 2})},
	}
	for _, tc := range cases {
		o := ComputeAndOrder(tc.g, tc.colors, Hairs)
		for i, cl := range o.Classes {
			arcs := surroundingArcs(nil, tc.g.EdgeEndpoints(), tc.g.BFSDist(cl[0]))
			want, err := hairKey(context.Background(), tc.g.N(), arcs, tc.colors, maxHairLength(tc.g))
			if err != nil {
				t.Fatal(err)
			}
			if o.Keys[i].Compare(want) != 0 {
				t.Errorf("%s: class %d (rep %d) key differs from its fresh surrounding's", tc.name, i, cl[0])
			}
		}
	}
}

// mustHairKey is the hair key, without a deadline, of the symmetric
// digraph of (g, colors): an arc each way along every edge, one arc per
// loop.
func mustHairKey(t *testing.T, g *graph.Graph, colors []int) Key {
	t.Helper()
	var arcs [][2]int
	for _, e := range g.EdgeEndpoints() {
		arcs = append(arcs, e)
		if e[0] != e[1] {
			arcs = append(arcs, [2]int{e[1], e[0]})
		}
	}
	k, err := hairKey(context.Background(), g.N(), arcs, colors, maxHairLength(g))
	if err != nil {
		t.Fatal(err)
	}
	return k
}
