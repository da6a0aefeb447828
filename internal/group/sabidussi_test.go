package group

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

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
			if adjacencyKey(s.Quotient) != adjacencyKey(c.g) {
				t.Errorf("quotient %v is not the input", s.Quotient)
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
	// The centre of Star(12) has a stabilizer of 12! elements, far past
	// the search budget: the missing a_1 must refuse the graph before H
	// is listed.
	start := time.Now()
	_, err := SabidussiQuotient(graph.Star(12))
	if err == nil || !strings.Contains(err.Error(), "not vertex-transitive") {
		t.Errorf("Star(12): %v, want not vertex-transitive", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Star(12) refused after %v", d)
	}
}

// TestSabidussiBudgetBoundsStabilizer lowers the budget of dead ends
// below |H| = 7! of K8: every element of H after the first costs one, so
// the construction must stop with ErrUndecided.
func TestSabidussiBudgetBoundsStabilizer(t *testing.T) {
	SetSearchBudget(t, 1000)
	if _, err := SabidussiQuotient(graph.Complete(8)); !errors.Is(err, ErrUndecided) {
		t.Fatalf("K8 under a budget of 1,000: %v, want ErrUndecided", err)
	}
}

// TestSabidussiBeyondTheOldCap builds the construction for K9, whose
// 362,880 automorphisms a closure capped at 2¹⁷ refused to list, and for
// Q6, whose 46,080 it listed but whose all-pairs coset scan took minutes.
// Each must finish inside 10 s.
func TestSabidussiBeyondTheOldCap(t *testing.T) {
	cases := []struct {
		name      string
		g         *graph.Graph
		aut, stab int
	}{
		{"K9", graph.Complete(9), 362880, 40320},
		{"Q6", graph.Hypercube(6), 46080, 720},
	}
	for _, c := range cases {
		type result struct {
			s   *Sabidussi
			err error
		}
		done := make(chan result, 1)
		go func() {
			s, err := SabidussiQuotient(c.g)
			done <- result{s, err}
		}()
		select {
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: no quotient within 10 s", c.name)
		case r := <-done:
			if r.err != nil {
				t.Fatalf("%s: %v", c.name, r.err)
			}
			if r.s.CayleyOrder() != c.aut || r.s.StabilizerOrder() != c.stab {
				t.Errorf("%s: |Γ| = %d, |H| = %d, want %d and %d",
					c.name, r.s.CayleyOrder(), r.s.StabilizerOrder(), c.aut, c.stab)
			}
			if adjacencyKey(r.s.Quotient) != adjacencyKey(c.g) {
				t.Errorf("%s: quotient is not the input", c.name)
			}
		}
	}
}
