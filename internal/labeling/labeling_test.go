package labeling

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/iso"
	"repro/internal/perm"
)

func blacks(n int, idx ...int) []int {
	c := make([]int, n)
	for _, i := range idx {
		c[i] = 1
	}
	return c
}

func TestIsLabelPreservingCycle(t *testing.T) {
	c := group.CycleCayley(6)
	l := CayleyNaturalLabeling(c)
	// Every translation preserves the natural labeling.
	for gamma := 0; gamma < 6; gamma++ {
		if !IsLabelPreserving(c.G, l, nil, c.Translation(gamma)) {
			t.Errorf("translation %d does not preserve the natural labeling", gamma)
		}
	}
	// A reflection does not (it swaps +1 and -1 generators).
	refl := make(perm.Perm, 6)
	for i := range refl {
		refl[i] = (6 - i) % 6
	}
	if IsLabelPreserving(c.G, l, nil, refl) {
		t.Error("reflection wrongly reported label-preserving")
	}
}

func TestLabelPreservingGroupIsExactlyTranslations(t *testing.T) {
	cays := []*group.Cayley{
		group.CycleCayley(5),
		group.CycleCayley(6),
		group.HypercubeCayley(3),
		group.CompleteCayley(4),
	}
	for _, c := range cays {
		l := CayleyNaturalLabeling(c)
		grp, err := LabelPreservingGroup(c.G, l, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(grp) != c.Group.Order() {
			t.Errorf("%s: label-preserving group order %d, want %d (translations only)",
				c.Group.Name(), len(grp), c.Group.Order())
			continue
		}
		// Each element must be a translation.
		for _, a := range grp {
			if !a.Equal(c.Translation(a[0])) {
				t.Errorf("%s: label-preserving element %v is not a translation", c.Group.Name(), a)
			}
		}
	}
}

func TestLabClassesMatchTranslationClasses(t *testing.T) {
	// Theorem 4.1's proof: under the natural labeling of a bicolored Cayley
	// graph, the ~lab classes are exactly the translation classes, all of
	// size d (the number of black-preserving translations).
	type tc struct {
		c     *group.Cayley
		black []int
	}
	cay64, err := group.TorusCayley(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []tc{
		{group.CycleCayley(6), []int{0, 3}},
		{group.CycleCayley(6), []int{0, 2}},
		{group.CycleCayley(8), []int{0, 4}},
		{group.HypercubeCayley(3), []int{0, 7}},
		{group.HypercubeCayley(3), []int{0, 3}},
		{cay64, []int{0, 4}},
		{group.CompleteCayley(4), []int{0, 1}},
	}
	for i, c := range cases {
		n := c.c.G.N()
		cols := blacks(n, c.black...)
		bl := make([]bool, n)
		for _, b := range c.black {
			bl[b] = true
		}
		want, d := c.c.TranslationClasses(bl)
		got, err := LabClasses(c.c.G, CayleyNaturalLabeling(c.c), cols)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Errorf("case %d: %d lab classes, want %d", i, len(got), len(want))
			continue
		}
		for j := range got {
			if len(got[j]) != len(want[j]) {
				t.Errorf("case %d class %d: size %d want %d", i, j, len(got[j]), len(want[j]))
			}
			if len(got[j]) != d {
				t.Errorf("case %d: class size %d, want d=%d", i, len(got[j]), d)
			}
			for k := range got[j] {
				if got[j][k] != want[j][k] {
					t.Errorf("case %d: class %d differs: %v vs %v", i, j, got[j], want[j])
					break
				}
			}
		}
	}
}

func TestLemma21EqualClassSizes(t *testing.T) {
	// For arbitrary labelings of arbitrary bicolored graphs, all ~lab
	// classes have the same size.
	rng := rand.New(rand.NewSource(5))
	gs := []*graph.Graph{
		graph.Cycle(6), graph.Petersen(), graph.Hypercube(3),
		graph.Star(4), graph.Path(5), graph.RandomConnected(9, 4, 7),
	}
	for gi, g := range gs {
		for trial := 0; trial < 5; trial++ {
			l := graph.RandomLabeling(g, rng.Int63())
			cols := make([]int, g.N())
			cols[rng.Intn(g.N())] = 1
			classes, err := LabClasses(g, l, cols)
			if err != nil {
				t.Fatal(err)
			}
			s := len(classes[0])
			for _, c := range classes {
				if len(c) != s {
					t.Errorf("graph %d trial %d: unequal class sizes %v", gi, trial, classes)
					break
				}
			}
		}
	}
}

func TestExistsSymmetricLabelingPositive(t *testing.T) {
	// C6 with antipodal blacks: rotation by 3 is preservable.
	g := graph.Cycle(6)
	w, err := ExistsSymmetricLabeling(g, blacks(6, 0, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if w == nil {
		t.Fatal("C6 antipodal should admit a symmetric labeling")
	}
	if w.Phi.IsIdentity() {
		t.Fatal("witness automorphism is the identity")
	}
	if err := w.Labeling.Validate(g); err != nil {
		t.Fatalf("witness labeling invalid: %v", err)
	}
	if !IsLabelPreserving(g, w.Labeling, blacks(6, 0, 3), w.Phi) {
		t.Fatal("witness does not preserve its own labeling")
	}
	// The ~lab classes under the witness labeling must all have size > 1
	// (this is exactly the Theorem 2.1 hypothesis).
	classes, err := LabClasses(g, w.Labeling, blacks(6, 0, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range classes {
		if len(c) < 2 {
			t.Fatalf("witness lab classes %v contain a singleton", classes)
		}
	}

	// K2 with both nodes black: the swap is preservable.
	k2 := graph.Path(2)
	w, err = ExistsSymmetricLabeling(k2, blacks(2, 0, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if w == nil {
		t.Fatal("K2 should admit a symmetric labeling")
	}
}

func TestExistsSymmetricLabelingNegative(t *testing.T) {
	// C6 with blacks at distance 2: no translation-like symmetry survives.
	g := graph.Cycle(6)
	w, err := ExistsSymmetricLabeling(g, blacks(6, 0, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if w != nil {
		t.Fatalf("C6 blacks{0,2} should admit no symmetric labeling, got φ=%v", w.Phi)
	}
	// A single black on any graph with a fixed point forced: C4 one black.
	w, err = ExistsSymmetricLabeling(graph.Cycle(4), blacks(4, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if w != nil {
		t.Fatal("C4 one black should admit no symmetric labeling")
	}
}

func TestPetersenFig5NoSymmetricLabeling(t *testing.T) {
	// The paper: "Any edge-labeling [of the Petersen graph with the two
	// agents of Figure 5] will result in label-equivalence classes of
	// size 1, whereas gcd(|C_b|,|C_g|,|C_w|) = 2."
	g := graph.Petersen()
	cols := blacks(10, 0, 1) // two adjacent home-bases
	w, err := ExistsSymmetricLabeling(g, cols, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w != nil {
		t.Fatalf("Petersen Fig.5 placement should have no symmetric labeling, got φ=%v", w.Phi)
	}
	// And the equivalence classes have sizes 2, 4, 4.
	orbits := perm.OrbitsOf(10, iso.CanonicalSparse(iso.SparseFromGraph(g, cols)).AutoGens)
	var sizes []int
	for _, o := range orbits {
		sizes = append(sizes, len(o))
	}
	sort.Ints(sizes)
	if len(sizes) != 3 || sizes[0] != 2 || sizes[1] != 4 || sizes[2] != 4 {
		t.Fatalf("Petersen classes sizes %v, want [2 4 4]", sizes)
	}
}

func TestTranslationGCDImpliesSymmetricLabeling(t *testing.T) {
	// One direction of Theorem 4.1 is unconditional: if some nontrivial
	// translation of the GIVEN Cayley representation preserves the black
	// set (d > 1), then a symmetric labeling exists (the natural labeling
	// is one), so election is impossible. The converse depends on the
	// representation: Cay(Z4,{1,3}) with adjacent blacks has d = 1, yet the
	// SAME graph seen as Cay(Z2², {01,10}) has a black-preserving
	// translation — a symmetric labeling exists anyway. The last two cases
	// pin down that asymmetry (see DESIGN.md §6).
	type tc struct {
		c         *group.Cayley
		black     []int
		d         int  // expected translation gcd for this representation
		symmetric bool // does a symmetric labeling exist?
	}
	cases := []tc{
		{group.CycleCayley(4), []int{0, 2}, 2, true},
		{group.CycleCayley(6), []int{0, 3}, 2, true},
		{group.CycleCayley(6), []int{0, 2}, 1, false},
		{group.CycleCayley(6), []int{0, 2, 4}, 3, true},
		{group.CycleCayley(6), []int{0, 1, 3}, 1, false},
		{group.HypercubeCayley(2), []int{0, 3}, 2, true},
		{group.HypercubeCayley(3), []int{0, 7}, 2, true},
		{group.HypercubeCayley(3), []int{0, 1, 2}, 1, false},
		// The under-specified corner: C4 with adjacent blacks has d = 1
		// under the Z4 representation, yet the same graph represented as
		// Cay(Z2², {01,10}) has the black-preserving translation ⊕01
		// (next case, d = 2) — so a symmetric labeling exists regardless.
		{group.CycleCayley(4), []int{0, 1}, 1, true},
		{group.HypercubeCayley(2), []int{0, 1}, 2, true},
	}
	for i, c := range cases {
		n := c.c.G.N()
		bl := make([]bool, n)
		for _, b := range c.black {
			bl[b] = true
		}
		_, d := c.c.TranslationClasses(bl)
		if d != c.d {
			t.Errorf("case %d (%s, blacks %v): d=%d, want %d", i, c.c.Group.Name(), c.black, d, c.d)
		}
		w, err := ExistsSymmetricLabeling(c.c.G, blacks(n, c.black...), 0)
		if err != nil {
			t.Fatal(err)
		}
		if (w != nil) != c.symmetric {
			t.Errorf("case %d (%s, blacks %v): symmetric labeling exists=%v, want %v",
				i, c.c.Group.Name(), c.black, w != nil, c.symmetric)
		}
		if d > 1 && w == nil {
			t.Errorf("case %d: d=%d > 1 must imply a symmetric labeling", i, d)
		}
	}
}

func TestFig2cRigidButUniformViews(t *testing.T) {
	g := graph.Fig2c()
	l := Fig2cLabeling()
	if err := l.Validate(g); err != nil {
		t.Fatal(err)
	}
	classes, err := LabClasses(g, l, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 3 {
		t.Fatalf("Fig2c lab classes %v, want 3 singletons", classes)
	}
	for _, c := range classes {
		if len(c) != 1 {
			t.Fatalf("Fig2c lab classes %v, want singletons", classes)
		}
	}
}

func TestExistsSymmetricLabelingRejectsMultigraph(t *testing.T) {
	if _, err := ExistsSymmetricLabeling(graph.Fig2c(), nil, 0); err != ErrMultigraph {
		t.Fatalf("expected ErrMultigraph, got %v", err)
	}
}

func TestFig2aLabelingValid(t *testing.T) {
	if err := Fig2aLabeling().Validate(graph.Path(3)); err != nil {
		t.Fatal(err)
	}
}
