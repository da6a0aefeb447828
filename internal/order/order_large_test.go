package order

// Tests of the large-graph COMPUTE & ORDER path (one sparse
// canonicalization + positional keys), forced onto small instances by
// lowering LargeThreshold.

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

// withLowThreshold runs f with LargeThreshold lowered so every test graph
// takes the large path.
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

// canonPartition sorts a class list into a comparable canonical form.
func canonPartition(classes [][]int) [][]int {
	out := make([][]int, len(classes))
	for i, c := range classes {
		out[i] = append([]int(nil), c...)
		sort.Ints(out[i])
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// TestLargePathMatchesSmallPath: the large path must produce the same class
// partition, black-class count, size multiset and GCD as the per-class
// surrounding path. (The order within a color group may differ — positional
// keys are a different ≺ — but everything Protocol ELECT consumes must
// agree.)
func TestLargePathMatchesSmallPath(t *testing.T) {
	for name, tc := range largeFamilies() {
		colors := blackColors(tc.g.N(), tc.homes)
		small := ComputeAndOrder(tc.g, colors, Direct)
		var large *Ordered
		withLowThreshold(t, func() {
			large = ComputeAndOrder(tc.g, colors, Direct)
		})
		if !reflect.DeepEqual(canonPartition(large.Classes), canonPartition(small.Classes)) {
			t.Fatalf("%s: large path computed a different class partition", name)
		}
		if large.NumBlack != small.NumBlack {
			t.Fatalf("%s: NumBlack %d != %d", name, large.NumBlack, small.NumBlack)
		}
		ls, ss := large.Sizes(), small.Sizes()
		sort.Ints(ls)
		sort.Ints(ss)
		if !reflect.DeepEqual(ls, ss) {
			t.Fatalf("%s: size multiset %v != %v", name, ls, ss)
		}
		if large.GCD() != small.GCD() {
			t.Fatalf("%s: GCD %d != %d", name, large.GCD(), small.GCD())
		}
		if large.Tied {
			t.Fatalf("%s: positional keys tied — they must be distinct per class", name)
		}
	}
}

// TestLargePathRelabelingInvariant: the class *sequence* produced by the
// large path must be invariant under relabeling — every agent computes the
// same protocol order from its own map. Class i of the relabeled graph must
// be exactly the image of class i of the original.
func TestLargePathRelabelingInvariant(t *testing.T) {
	withLowThreshold(t, func() {
		for name, tc := range largeFamilies() {
			n := tc.g.N()
			colors := blackColors(n, tc.homes)
			base := ComputeAndOrder(tc.g, colors, Direct)
			p := rand.New(rand.NewSource(int64(n))).Perm(n)
			h, err := tc.g.Relabel(p)
			if err != nil {
				t.Fatal(err)
			}
			hcolors := make([]int, n)
			for v, c := range colors {
				hcolors[p[v]] = c
			}
			got := ComputeAndOrder(h, hcolors, Direct)
			if len(got.Classes) != len(base.Classes) {
				t.Fatalf("%s: class count changed under relabeling", name)
			}
			for i := range base.Classes {
				img := make([]int, 0, len(base.Classes[i]))
				for _, v := range base.Classes[i] {
					img = append(img, p[v])
				}
				sort.Ints(img)
				want := append([]int(nil), got.Classes[i]...)
				sort.Ints(want)
				if !reflect.DeepEqual(img, want) {
					t.Fatalf("%s: class %d is not the relabeled image — order not invariant", name, i)
				}
			}
		}
	})
}

// TestComputeAndOrderCtxCancel: a pre-canceled context must surface
// context.Canceled on both the small and the large path.
func TestComputeAndOrderCtxCancel(t *testing.T) {
	g := graph.Torus(4, 6)
	colors := blackColors(24, []int{0, 12})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ComputeAndOrderCtx(ctx, g, colors, Direct); !errors.Is(err, context.Canceled) {
		t.Fatalf("small path: got err=%v, want context.Canceled", err)
	}
	withLowThreshold(t, func() {
		if _, err := ComputeAndOrderCtx(ctx, g, colors, Direct); !errors.Is(err, context.Canceled) {
			t.Fatalf("large path: got err=%v, want context.Canceled", err)
		}
	})
}

// TestComputeAndOrderSearchCount pins the cost of COMPUTE & ORDER on a
// rigid mid-size graph: one whole-graph canonical search yields the classes
// (its generators span the automorphism group), then each class costs one
// surrounding search.
func TestComputeAndOrderSearchCount(t *testing.T) {
	g := graph.RandomRegular(200, 3, 1)
	before := iso.Stats()
	o := ComputeAndOrder(g, blackColors(200, []int{0, 1, 2}), Direct)
	got := iso.Stats().Sub(before).Searches
	if want := int64(1 + len(o.Classes)); got != want || want != 201 {
		t.Fatalf("ran %d canonical searches for %d classes, want 201 = 1 + 200 classes", got, len(o.Classes))
	}
}
