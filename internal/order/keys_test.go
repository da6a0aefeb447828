package order

import (
	"testing"

	"repro/internal/graph"
)

// TestClassKeysMatchFreshSurroundings: classKeys draws every class's
// surrounding into one reused matrix and erases it after the key. Each key
// must equal the key of the same surrounding built fresh, so an arc left
// behind by an earlier class fails this test.
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
	for _, ord := range []Ordering{Direct, Hairs} {
		for _, tc := range cases {
			o := ComputeAndOrder(tc.g, tc.colors, ord)
			for i, cl := range o.Classes {
				want := SurroundingKey(Surrounding(tc.g, tc.colors, cl[0]), ord)
				if o.Keys[i].Compare(want) != 0 {
					t.Errorf("%s ord=%d: class %d (rep %d) key differs from its fresh surrounding's", tc.name, ord, i, cl[0])
				}
			}
		}
	}
}
