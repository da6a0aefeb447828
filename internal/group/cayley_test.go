package group

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/iso"
	"repro/internal/perm"
)

func TestCycleCayleyMatchesGraph(t *testing.T) {
	for _, n := range []int{3, 5, 8} {
		c := CycleCayley(n)
		if !isoGraphs(c.G, graph.Cycle(n)) {
			t.Errorf("CycleCayley(%d) not isomorphic to Cycle(%d)", n, n)
		}
	}
}

func TestHypercubeCayleyMatchesGraph(t *testing.T) {
	for _, d := range []int{1, 2, 3} {
		c := HypercubeCayley(d)
		if !isoGraphs(c.G, graph.Hypercube(d)) {
			t.Errorf("HypercubeCayley(%d) mismatch", d)
		}
		if c.Degree() != d {
			t.Errorf("HypercubeCayley(%d) degree %d", d, c.Degree())
		}
	}
}

func TestTorusCayleyMatchesGraph(t *testing.T) {
	c, err := TorusCayley(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !isoGraphs(c.G, graph.Torus(3, 4)) {
		t.Error("TorusCayley(3,4) mismatch")
	}
}

func TestCompleteCayleyMatchesGraph(t *testing.T) {
	c := CompleteCayley(5)
	if !isoGraphs(c.G, graph.Complete(5)) {
		t.Error("CompleteCayley(5) mismatch")
	}
}

func TestNewCayleyValidation(t *testing.T) {
	g := Cyclic(6)
	if _, err := NewCayley(g, []int{0}); err == nil {
		t.Error("identity generator accepted")
	}
	if _, err := NewCayley(g, []int{1}); err == nil {
		t.Error("non-symmetric generating set accepted")
	}
	if _, err := NewCayley(g, []int{2, 4}); err == nil {
		t.Error("non-generating set accepted (disconnected graph)")
	}
	// {3} is symmetric (3 is an involution) but generates only {0,3}.
	if _, err := NewCayley(g, []int{3}); err == nil {
		t.Error("non-generating involution accepted")
	}
	// A genuine involution generator: Z2 with {1} gives K2.
	if c, err := NewCayley(Cyclic(2), []int{1}); err != nil {
		t.Errorf("K2 as Cay(Z2,{1}) rejected: %v", err)
	} else if c.G.N() != 2 || c.G.M() != 1 {
		t.Errorf("Cay(Z2,{1}) has n=%d m=%d, want 2,1", c.G.N(), c.G.M())
	}
}

func TestNaturalLabelingConsistency(t *testing.T) {
	// Port p of vertex v labeled s must lead to v*s, and the twin port must
	// be labeled s⁻¹ — the labeling from Theorem 4.1's proof.
	cays := []*Cayley{CycleCayley(7), HypercubeCayley(3), CompleteCayley(4)}
	if c, err := TorusCayley(3, 3); err == nil {
		cays = append(cays, c)
	}
	for _, c := range cays {
		for v := 0; v < c.G.N(); v++ {
			seen := make(map[int]bool)
			for p, h := range c.G.Ports(v) {
				s := c.PortGen[v][p]
				if seen[s] {
					t.Fatalf("%s: duplicate generator label %d at vertex %d", c.Group.Name(), s, v)
				}
				seen[s] = true
				if c.Group.Mul(v, s) != h.To {
					t.Fatalf("%s: port (%d,%d) labeled %d leads to %d, want %d",
						c.Group.Name(), v, p, s, h.To, c.Group.Mul(v, s))
				}
				twinLabel := c.PortGen[h.To][h.Twin]
				if twinLabel != c.Group.Inv(s) {
					t.Fatalf("%s: twin label %d, want inverse %d", c.Group.Name(), twinLabel, c.Group.Inv(s))
				}
			}
		}
	}
}

func TestTranslationsPreserveGraphAndLabels(t *testing.T) {
	c := HypercubeCayley(3)
	for gamma := 0; gamma < c.Group.Order(); gamma++ {
		tr := c.Translation(gamma)
		for v := 0; v < c.G.N(); v++ {
			for p, h := range c.G.Ports(v) {
				// Edge {v, h.To} labeled s at v must map to an edge
				// {tr[v], tr[h.To]} labeled s at tr[v].
				s := c.PortGen[v][p]
				found := false
				for q, h2 := range c.G.Ports(tr[v]) {
					if h2.To == tr[h.To] && c.PortGen[tr[v]][q] == s {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("translation %d does not preserve labeled edge (%d->%d, s=%d)",
						gamma, v, h.To, s)
				}
			}
		}
	}
}

func TestTranslationClassesCycle(t *testing.T) {
	// C6 with blacks at 0 and 3: the translation +3 preserves the black
	// set, so classes have size 2 and the gcd criterion says impossible.
	c := CycleCayley(6)
	black := make([]bool, 6)
	black[0], black[3] = true, true
	classes, h := c.TranslationClasses(black)
	if h != 2 {
		t.Fatalf("|H| = %d, want 2", h)
	}
	for _, cl := range classes {
		if len(cl) != 2 {
			t.Fatalf("class sizes %v, want all 2", classes)
		}
	}
	// C6 with blacks at 0 and 2: only identity preserves blacks.
	black = make([]bool, 6)
	black[0], black[2] = true, true
	classes, h = c.TranslationClasses(black)
	if h != 1 {
		t.Fatalf("|H| = %d, want 1", h)
	}
	if len(classes) != 6 {
		t.Fatalf("expected 6 singleton classes, got %v", classes)
	}
}

func TestTranslationClassesVsEquivalenceClasses(t *testing.T) {
	// The paper (Section 4) notes nodes 1 and n/2-1 of an even cycle with
	// antipodal agents are equivalent but NOT translation-equivalent.
	c := CycleCayley(8)
	black := make([]bool, 8)
	black[0], black[4] = true, true
	classes, _ := c.TranslationClasses(black)
	// Classes under translations: {0,4},{1,5},{2,6},{3,7}.
	if len(classes) != 4 {
		t.Fatalf("translation classes %v, want 4 classes", classes)
	}
	sameClass := func(a, b int) bool {
		for _, cl := range classes {
			ina, inb := false, false
			for _, v := range cl {
				ina = ina || v == a
				inb = inb || v == b
			}
			if ina {
				return inb
			}
		}
		return false
	}
	if sameClass(1, 3) {
		t.Error("1 and 3 (= n/2 - 1) must not be translation-equivalent")
	}
	// But they ARE equivalent under reflection (a plain automorphism).
	cols := []int{1, 0, 0, 0, 1, 0, 0, 0}
	orbits := perm.OrbitsOf(c.G.N(), iso.CanonicalSparse(iso.SparseFromGraph(c.G, cols)).AutoGens)
	same := false
	for _, o := range orbits {
		has1, has3 := false, false
		for _, v := range o {
			has1 = has1 || v == 1
			has3 = has3 || v == 3
		}
		same = same || (has1 && has3)
	}
	if !same {
		t.Error("1 and 3 should be equivalent under color-preserving automorphism")
	}
}

func TestRecognizeCayleyFamilies(t *testing.T) {
	positive := map[string]*graph.Graph{
		"C5":      graph.Cycle(5),
		"C6":      graph.Cycle(6),
		"K4":      graph.Complete(4),
		"Q3":      graph.Hypercube(3),
		"K33":     graph.CompleteBipartite(3, 3),
		"prism3":  graph.Prism(3),
		"circ8":   graph.Circulant(8, []int{1, 2}),
		"torus33": graph.Torus(3, 3),
	}
	for name, g := range positive {
		rec, err := RecognizeCtx(context.Background(), g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rec.IsCayley {
			t.Errorf("%s: should be recognized as Cayley", name)
			continue
		}
		cay, err := rec.RecognizedCayley(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The reconstructed group must be a genuine group of order n whose
		// Cayley graph is the input (identity vertex correspondence).
		if cay.Group.Order() != g.N() {
			t.Errorf("%s: group order %d, want %d", name, cay.Group.Order(), g.N())
		}
		// Check the natural labeling property on the recognized structure.
		for v := 0; v < g.N(); v++ {
			for p, h := range g.Ports(v) {
				s := cay.PortGen[v][p]
				if cay.Group.Mul(v, s) != h.To {
					t.Fatalf("%s: recognized labeling inconsistent at (%d,%d)", name, v, p)
				}
			}
		}
	}

	negative := map[string]*graph.Graph{
		"petersen": graph.Petersen(),              // vertex-transitive, not Cayley
		"path4":    graph.Path(4),                 // not regular
		"star3":    graph.Star(3),                 // not regular
		"wheel5":   graph.Wheel(5),                // not regular
		"K23":      graph.CompleteBipartite(2, 3), // not regular
	}
	for name, g := range negative {
		rec, err := RecognizeCtx(context.Background(), g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rec.IsCayley {
			t.Errorf("%s: wrongly recognized as Cayley", name)
		}
	}
}

func TestRecognizeDeterministic(t *testing.T) {
	g := graph.Hypercube(3)
	r1, err1 := RecognizeCtx(context.Background(), g)
	r2, err2 := RecognizeCtx(context.Background(), g)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for v := range r1.Regular {
		if !r1.Regular[v].Equal(r2.Regular[v]) {
			t.Fatal("recognition not deterministic")
		}
	}
}

// TestRecognizeRejectsRigidBeforeSearch: on a rigid random 3-regular graph
// some vertex sees a different number of vertices at some distance than
// vertex 0 does, so RecognizeCtx answers "not Cayley" without a canonical
// search of G.
func TestRecognizeRejectsRigidBeforeSearch(t *testing.T) {
	g := graph.RandomRegular(200, 3, 1)
	before := iso.Stats()
	rec, err := RecognizeCtx(context.Background(), g)
	if err != nil || rec.IsCayley {
		t.Fatalf("RecognizeCtx(RR3-200) = %+v, %v", rec, err)
	}
	if got := iso.Stats().Sub(before).Searches; got != 0 {
		t.Fatalf("RecognizeCtx(RR3-200) ran %d canonical searches, want 0", got)
	}
}

// TestRecognizeAllocationBound: the regular-subgroup search opens an
// enumeration only for the slots it branches on, so one RecognizeCtx call
// on C1000 allocates about 27 MB. Opening one enumeration per vertex up
// front costs 85 MB there; the bound sits at half of that.
func TestRecognizeAllocationBound(t *testing.T) {
	g := graph.Cycle(1000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec, err := RecognizeCtx(context.Background(), g)
	runtime.ReadMemStats(&after)
	if err != nil || !rec.IsCayley {
		t.Fatalf("RecognizeCtx(C1000) = %+v, %v", rec, err)
	}
	const bound = 42 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Fatalf("RecognizeCtx(C1000) allocated %d bytes, want at most %d", got, bound)
	}
}

// TestRecognizeUndecidedOnHugeAut: a search that runs out of its budget
// reports ErrUndecided, never a silent false. K8 meets about 5,000 dead
// ends before it is decided; ten do not suffice.
func TestRecognizeUndecidedOnHugeAut(t *testing.T) {
	SetSearchBudget(t, 10)
	_, err := RecognizeCtx(context.Background(), graph.Complete(8))
	if err != ErrUndecided {
		t.Fatalf("expected ErrUndecided, got %v", err)
	}
}

// TestRecognizedCayleyNeedsGroup: RecognizedCayley needs the abstract
// group and builds it from Regular, so a RecognizeCtx result converts:
// vertex 0 is the identity, element v is Regular[v], and port p of v leads
// to v·PortGen[v][p]. A non-Cayley recognition is refused.
func TestRecognizedCayleyNeedsGroup(t *testing.T) {
	g := graph.Cycle(6)
	rec, err := RecognizeCtx(context.Background(), g)
	if err != nil || !rec.IsCayley {
		t.Fatalf("RecognizeCtx(C6) = %+v, %v", rec, err)
	}
	cay, err := rec.RecognizedCayley(g)
	if err != nil {
		t.Fatal(err)
	}
	if cay.Group.Order() != g.N() || cay.Group.Identity() != 0 || len(cay.Gens) != 2 {
		t.Fatalf("RecognizedCayley(C6): order %d, gens %v", cay.Group.Order(), cay.Gens)
	}
	for u := range rec.Regular {
		for v := range rec.Regular {
			if cay.Group.Mul(u, v) != rec.Regular[u][v] {
				t.Fatalf("element %d·%d = %d, want Regular[%d][%d] = %d",
					u, v, cay.Group.Mul(u, v), u, v, rec.Regular[u][v])
			}
		}
	}
	for v := range g.N() {
		for p, h := range g.Ports(v) {
			if cay.Group.Mul(v, cay.PortGen[v][p]) != h.To {
				t.Fatalf("port %d of %d: generator %d does not lead to %d", p, v, cay.PortGen[v][p], h.To)
			}
		}
	}
	petersen := graph.Petersen()
	rec, err = RecognizeCtx(context.Background(), petersen)
	if err != nil || rec.IsCayley {
		t.Fatalf("RecognizeCtx(Petersen) = %+v, %v", rec, err)
	}
	if _, err := rec.RecognizedCayley(petersen); err == nil {
		t.Fatal("RecognizedCayley accepted a non-Cayley recognition")
	}
}
