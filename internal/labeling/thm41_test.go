package labeling

import (
	"testing"

	"repro/internal/group"
)

func blackSet(n int, idx ...int) []bool {
	out := make([]bool, n)
	for _, i := range idx {
		out[i] = true
	}
	return out
}

func TestThm41RefinementInvariants(t *testing.T) {
	torus, err := group.TorusCayley(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		c     *group.Cayley
		black []bool
		d     int
	}{
		{"C6-antipodal", group.CycleCayley(6), blackSet(6, 0, 3), 2},
		{"C6-thirds", group.CycleCayley(6), blackSet(6, 0, 2, 4), 3},
		{"C8-antipodal", group.CycleCayley(8), blackSet(8, 0, 4), 2},
		{"C8-quarters", group.CycleCayley(8), blackSet(8, 0, 2, 4, 6), 4},
		{"Q3-antipodal", group.HypercubeCayley(3), blackSet(8, 0, 7), 2},
		{"Q3-face", group.HypercubeCayley(3), blackSet(8, 0, 3, 5, 6), 4},
		{"K4-all", group.CompleteCayley(4), blackSet(4, 0, 1, 2, 3), 4},
		{"K4-pair", group.CompleteCayley(4), blackSet(4, 0, 1), 1},
		{"torus-diag", torus, blackSet(9, 0, 4, 8), 3},
		{"C6-dist2", group.CycleCayley(6), blackSet(6, 0, 2), 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr, err := Thm41Refine(c.c, c.black)
			if err != nil {
				t.Fatal(err)
			}
			if tr.D != c.d {
				t.Fatalf("d = %d, want %d", tr.D, c.d)
			}
			for _, cl := range tr.Final {
				if len(cl) != c.d {
					t.Fatalf("final class of size %d, want %d", len(cl), c.d)
				}
			}
			// Cross-check: the proof says the final pseudo-classes are the
			// label-equivalence classes of the natural labeling. Compare as
			// partitions.
			cols := make([]int, len(c.black))
			for v, b := range c.black {
				if b {
					cols[v] = 1
				}
			}
			lab, err := LabClasses(c.c.G, CayleyNaturalLabeling(c.c), cols)
			if err != nil {
				t.Fatal(err)
			}
			if !samePartition(tr.Final, lab, c.c.G.N()) {
				t.Fatalf("refinement classes %v differ from ~lab classes %v", tr.Final, lab)
			}
		})
	}
}

func samePartition(a, b [][]int, n int) bool {
	ka := make([]int, n)
	kb := make([]int, n)
	for i, cl := range a {
		for _, v := range cl {
			ka[v] = i
		}
	}
	for i, cl := range b {
		for _, v := range cl {
			kb[v] = i
		}
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if (ka[u] == ka[v]) != (kb[u] == kb[v]) {
				return false
			}
		}
	}
	return true
}

func TestThm41StepCountBounded(t *testing.T) {
	// Each split adds one class; classes are bounded by n, so steps < n.
	c := group.CycleCayley(12)
	tr, err := Thm41Refine(c, blackSet(12, 0, 6))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Steps) >= 12 {
		t.Fatalf("too many steps: %d", len(tr.Steps))
	}
	// Translation classes of the antipodal placement already all have size
	// d = 2, so the refinement may terminate without splits; the final
	// partition must still be the 6 antipodal pairs.
	if len(tr.Final) != 6 {
		t.Fatalf("final classes %d, want 6 of size 2", len(tr.Final))
	}
}

func TestThm41RefinementVacuousFromTranslationClasses(t *testing.T) {
	// Free actions give equal-size translation classes, so no case in the
	// suite should ever need a split — this pins down the observation in
	// Thm41Refine's doc comment.
	cases := []struct {
		c     *group.Cayley
		black []bool
	}{
		{group.CycleCayley(6), blackSet(6, 0, 3)},
		{group.CycleCayley(8), blackSet(8, 0, 2, 4, 6)},
		{group.HypercubeCayley(3), blackSet(8, 0, 7)},
		{group.CompleteCayley(4), blackSet(4, 0, 1, 2, 3)},
	}
	for _, c := range cases {
		tr, err := Thm41Refine(c.c, c.black)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Steps) != 0 {
			t.Fatalf("expected zero splits from translation classes, got %d", len(tr.Steps))
		}
	}
}
