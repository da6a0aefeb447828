package order

// Tests of the positional order (one sparse canonicalization, classes ranked
// by smallest canonical position), which Direct runs at every size and
// Hairs falls back to at LargeThreshold, forced onto small instances by
// lowering the threshold.

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/iso"
)

// withLowThreshold runs f with LargeThreshold lowered so the hair order
// falls back to the positional order on every test graph.
func withLowThreshold(t *testing.T, f func()) {
	t.Helper()
	old := LargeThreshold
	LargeThreshold = 1
	defer func() { LargeThreshold = old }()
	f()
}

func largeFamilies() map[string]struct {
	g     *graph.Graph
	homes []int
} {
	return map[string]struct {
		g     *graph.Graph
		homes []int
	}{
		"c32":      {graph.Cycle(32), []int{0, 8, 16, 24}},
		"torus4x6": {graph.Torus(4, 6), []int{0, 12}},
		"petersen": {graph.Petersen(), []int{0}},
		"q4":       {graph.Hypercube(4), []int{0, 3}},
		"prism8":   {graph.Prism(8), []int{1, 9}},
		"wheel6":   {graph.Wheel(6), nil},
		"blowup":   {graph.BlowupCycle(4, 3), []int{0}},
	}
}

func blackColors(n int, homes []int) []int {
	out := make([]int, n)
	for _, h := range homes {
		out[h]++
	}
	return out
}

// TestLargePathRelabelingInvariant: the class *sequence* of the positional
// order must be invariant under relabeling — every agent computes the same
// protocol order from its own map. Class i of the relabeled graph must be
// exactly the image of class i of the original.
func TestLargePathRelabelingInvariant(t *testing.T) {
	withLowThreshold(t, func() {
		for name, tc := range largeFamilies() {
			for _, ord := range []Ordering{Direct, Hairs} {
				n := tc.g.N()
				colors := blackColors(n, tc.homes)
				base := ComputeAndOrder(tc.g, colors, ord)
				p := rand.New(rand.NewSource(int64(n))).Perm(n)
				h, err := tc.g.Relabel(p)
				if err != nil {
					t.Fatal(err)
				}
				hcolors := make([]int, n)
				for v, c := range colors {
					hcolors[p[v]] = c
				}
				got := ComputeAndOrder(h, hcolors, ord)
				if len(got.Classes) != len(base.Classes) {
					t.Fatalf("%s ordering %v: class count changed under relabeling", name, ord)
				}
				for i := range base.Classes {
					img := make([]int, 0, len(base.Classes[i]))
					for _, v := range base.Classes[i] {
						img = append(img, p[v])
					}
					sort.Ints(img)
					if !reflect.DeepEqual(img, got.Classes[i]) {
						t.Fatalf("%s ordering %v: class %d is not the relabeled image — order not invariant", name, ord, i)
					}
				}
			}
		}
	})
}

// TestComputeAndOrderCtxCancel: a pre-canceled context must surface
// context.Canceled under both orderings.
func TestComputeAndOrderCtxCancel(t *testing.T) {
	g := graph.Torus(4, 6)
	colors := blackColors(24, []int{0, 12})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, ord := range []Ordering{Direct, Hairs} {
		if _, err := ComputeAndOrderCtx(ctx, g, colors, ord); !errors.Is(err, context.Canceled) {
			t.Fatalf("ordering %v: got err=%v, want context.Canceled", ord, err)
		}
	}
}

// TestComputeAndOrderSearchCount pins the cost of COMPUTE & ORDER: one
// sparse whole-graph canonical search yields the classes (its generators
// span the automorphism group), and under Direct their order too, at every
// size; the hair order adds one surrounding search per class. RR3-200 is
// rigid (200 classes); C2047 with one home has 1,024 classes.
func TestComputeAndOrderSearchCount(t *testing.T) {
	rr3 := graph.RandomRegular(200, 3, 1)
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		homes   []int
		ord     Ordering
		classes int
		want    int64
	}{
		{"rr3-200 direct", rr3, []int{0, 1, 2}, Direct, 200, 1},
		{"c2047 direct", graph.Cycle(2047), []int{0}, Direct, 1024, 1},
		{"rr3-200 hairs", rr3, []int{0, 1, 2}, Hairs, 200, 1 + 200},
	} {
		before := iso.Stats()
		o := ComputeAndOrder(tc.g, blackColors(tc.g.N(), tc.homes), tc.ord)
		if got := iso.Stats().Sub(before).Searches; got != tc.want || len(o.Classes) != tc.classes {
			t.Fatalf("%s: ran %d canonical searches for %d classes, want %d for %d", tc.name, got, len(o.Classes), tc.want, tc.classes)
		}
	}
}
