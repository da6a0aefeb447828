package group

import (
	"context"
	"testing"

	"repro/internal/graph"
)

func TestSabidussiQuotientReproducesGraph(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		aut  int // expected |Aut|
	}{
		{"C5", graph.Cycle(5), 10},
		{"C6", graph.Cycle(6), 12},
		{"K4", graph.Complete(4), 24},
		{"Q3", graph.Hypercube(3), 48},
		{"petersen", graph.Petersen(), 120},
		{"prism3", graph.Prism(3), 12},
		{"K33", graph.CompleteBipartite(3, 3), 72},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := SabidussiQuotient(c.g)
			if err != nil {
				t.Fatal(err)
			}
			if s.CayleyOrder() != c.aut {
				t.Errorf("|Aut| = %d, want %d", s.CayleyOrder(), c.aut)
			}
			if s.CayleyOrder() != c.g.N()*s.StabilizerOrder() {
				t.Errorf("orbit-stabilizer violated: %d != %d * %d",
					s.CayleyOrder(), c.g.N(), s.StabilizerOrder())
			}
			if !s.QuotientIsomorphicToInput(c.g) {
				t.Errorf("quotient not isomorphic to input (quotient: %v)", s.Quotient)
			}
		})
	}
}

func TestSabidussiPetersenDestroysTranslations(t *testing.T) {
	// The Section 4 closing remark: Petersen = Cay(Aut, S)/H with |H| = 12;
	// the quotient identifies 12 covering vertices per node, which is what
	// invalidates a Theorem 4.1-style argument — Petersen itself has no
	// regular subgroup (it is not Cayley) although its cover trivially does.
	g := graph.Petersen()
	s, err := SabidussiQuotient(g)
	if err != nil {
		t.Fatal(err)
	}
	if s.StabilizerOrder() != 12 {
		t.Errorf("stabilizer order %d, want 120/10 = 12", s.StabilizerOrder())
	}
	rec, err := RecognizeCtx(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if rec.IsCayley {
		t.Error("Petersen must not be Cayley")
	}
}

func TestSabidussiRejectsNonTransitive(t *testing.T) {
	if _, err := SabidussiQuotient(graph.Path(4)); err == nil {
		t.Error("path accepted (not vertex-transitive)")
	}
	if _, err := SabidussiQuotient(graph.Star(3)); err == nil {
		t.Error("star accepted")
	}
}
