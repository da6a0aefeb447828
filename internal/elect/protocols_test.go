package elect

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/sim"
)

func run(t *testing.T, g *graph.Graph, homes []int, seed int64, quant bool, p sim.Protocol) *sim.Result {
	t.Helper()
	res, err := sim.Run(sim.Config{
		Graph: g, Homes: homes, Seed: seed, WakeAll: false,
		MaxDelay:        100 * time.Microsecond,
		Timeout:         60 * time.Second,
		QuantitativeIDs: quant,
	}, p)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return res
}

func TestCayleyElectSuite(t *testing.T) {
	cases := []struct {
		name    string
		g       *graph.Graph
		homes   []int
		succeed bool
	}{
		// d = 1, unique minimum: solvable.
		{"C6-dist2", graph.Cycle(6), []int{0, 2}, true},
		{"C7-two", graph.Cycle(7), []int{0, 2}, true},
		{"C5-single", graph.Cycle(5), []int{0}, true},
		{"Q3-three", graph.Hypercube(3), []int{0, 1, 3}, true},
		// d > 1: impossible.
		{"C6-antipodal", graph.Cycle(6), []int{0, 3}, false},
		{"K2", graph.Path(2), []int{0, 1}, false},
		{"Q3-antipodal", graph.Hypercube(3), []int{0, 7}, false},
		{"K4-all", graph.Complete(4), []int{0, 1, 2, 3}, false},
		// The under-specified corner: d = 1 for the Z4 representation but the
		// Klein representation has a black-preserving translation; the
		// automorphism-class gcd (2) catches it: unsolvable.
		{"C4-adjacent", graph.Cycle(4), []int{0, 1}, false},
		// C6 adjacent agents: d = 1 but gcd = 2; genuinely unsolvable
		// (the edge reflection supports a symmetric labeling).
		{"C6-adjacent", graph.Cycle(6), []int{0, 1}, false},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			// Cross-check expectation with the centralized analysis.
			an, err := Analyze(c.g, c.homes, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !an.Cayley {
				t.Fatalf("suite graph not recognized as Cayley")
			}
			if an.CayleyElectSucceeds() != c.succeed {
				t.Fatalf("oracle disagrees: d=%d gcd=%d, suite wants succeed=%v",
					an.TranslationD, an.GCD, c.succeed)
			}
			// And with the exact Theorem 2.1 impossibility criterion.
			if an.Thm21Checked && an.Impossible21 == c.succeed {
				t.Fatalf("Theorem 2.1 oracle says impossible=%v, suite wants succeed=%v",
					an.Impossible21, c.succeed)
			}
			for seed := int64(1); seed <= 2; seed++ {
				res := run(t, c.g, c.homes, seed, false, CayleyElect(CayleyOptions{}))
				if c.succeed && !res.AgreedLeader() {
					t.Fatalf("seed %d: expected leader, got %+v", seed, res.Outcomes)
				}
				if !c.succeed && !res.AllUnsolvable() {
					t.Fatalf("seed %d: expected unsolvable, got %+v", seed, res.Outcomes)
				}
			}
		})
	}
}

func TestCayleyElectRejectsNonCayley(t *testing.T) {
	_, err := sim.Run(sim.Config{
		Graph: graph.Petersen(), Homes: []int{0, 1}, Seed: 1, WakeAll: true,
		Timeout: 30 * time.Second,
	}, CayleyElect(CayleyOptions{}))
	if err == nil {
		t.Fatal("expected ErrNotCayley propagation")
	}
}

func TestCayleyElectFallback(t *testing.T) {
	// With the fallback, Petersen/Fig5 degrades to plain ELECT: gcd 2,
	// so all agents report unsolvable (the paper's non-effectualness).
	res := run(t, graph.Petersen(), []int{0, 1}, 1, false,
		CayleyElect(CayleyOptions{FallbackToElect: true}))
	if !res.AllUnsolvable() {
		t.Fatalf("expected unsolvable under fallback, got %+v", res.Outcomes)
	}
}

func TestQuantitativeElectUniversal(t *testing.T) {
	// The quantitative baseline elects everywhere — including on instances
	// that are impossible in the qualitative model (Table 1, row 3).
	cases := []struct {
		g     *graph.Graph
		homes []int
	}{
		{graph.Path(2), []int{0, 1}},           // K2!
		{graph.Cycle(6), []int{0, 3}},          // antipodal
		{graph.Petersen(), []int{0, 1}},        // Fig. 5
		{graph.Hypercube(3), []int{0, 7}},      // antipodal cube
		{graph.Complete(4), []int{0, 1, 2, 3}}, // fully occupied
		{graph.Cycle(5), []int{0}},             // single agent
		{graph.Star(4), []int{1, 2, 3, 4}},     // leaves
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 2; seed++ {
			res := run(t, c.g, c.homes, seed, true, QuantitativeElect())
			if !res.AgreedLeader() {
				t.Fatalf("%v homes %v seed %d: %+v", c.g, c.homes, seed, res.Outcomes)
			}
		}
	}
}

func TestQuantitativeElectMaxWins(t *testing.T) {
	// The winner must be the agent with the maximum integer identity
	// (ids are assigned 1..r in home order by the sim engine).
	g := graph.Cycle(6)
	homes := []int{0, 3}
	res := run(t, g, homes, 3, true, QuantitativeElect())
	if res.Outcomes[1].Role != sim.RoleLeader {
		t.Fatalf("agent with max id (index 1) should win, got %+v", res.Outcomes)
	}
	if res.Outcomes[0].Role != sim.RoleDefeated || !res.Outcomes[0].Leader.Equal(res.Colors[1]) {
		t.Fatalf("loser should acknowledge the winner, got %+v", res.Outcomes[0])
	}
}

func TestPetersenAdHocElects(t *testing.T) {
	// Figure 5: ELECT fails on this instance but the bespoke protocol
	// elects — over many seeds and schedules.
	for seed := int64(1); seed <= 10; seed++ {
		res := run(t, graph.Petersen(), []int{0, 1}, seed, false, PetersenElect())
		if !res.AgreedLeader() {
			t.Fatalf("seed %d: expected leader, got %+v", seed, res.Outcomes)
		}
	}
	// Works from any adjacent pair (vertex-transitivity).
	for _, homes := range [][]int{{2, 3}, {5, 7}, {4, 9}, {0, 5}} {
		res := run(t, graph.Petersen(), homes, 2, false, PetersenElect())
		if !res.AgreedLeader() {
			t.Fatalf("homes %v: expected leader, got %+v", homes, res.Outcomes)
		}
	}
}

func TestPetersenAdHocValidatesInput(t *testing.T) {
	if _, err := sim.Run(sim.Config{
		Graph: graph.Cycle(10), Homes: []int{0, 1}, Seed: 1, WakeAll: true,
		Timeout: 30 * time.Second,
	}, PetersenElect()); err == nil {
		t.Error("C10 accepted by PetersenElect")
	}
	if _, err := sim.Run(sim.Config{
		Graph: graph.Petersen(), Homes: []int{0, 2}, Seed: 1, WakeAll: true,
		Timeout: 30 * time.Second,
	}, PetersenElect()); err == nil {
		t.Error("non-adjacent home-bases accepted")
	}
}

func TestAnalyzeTable1Consistency(t *testing.T) {
	// Wherever the Theorem 2.1 oracle is decisive, it must be consistent
	// with both protocol predictions: a protocol can only succeed on
	// possible instances, and on Cayley graphs the Section 4 protocol must
	// succeed exactly on the possible ones (effectualness).
	cases := []struct {
		g     *graph.Graph
		homes []int
	}{
		{graph.Cycle(4), []int{0, 1}},
		{graph.Cycle(4), []int{0, 2}},
		{graph.Cycle(5), []int{0, 1}},
		{graph.Cycle(6), []int{0, 1}},
		{graph.Cycle(6), []int{0, 2}},
		{graph.Cycle(6), []int{0, 3}},
		{graph.Cycle(6), []int{0, 1, 2}},
		{graph.Cycle(6), []int{0, 2, 4}},
		{graph.Hypercube(3), []int{0, 1}},
		{graph.Hypercube(3), []int{0, 3}},
		{graph.Hypercube(3), []int{0, 7}},
		{graph.Hypercube(3), []int{0, 1, 2}},
		{graph.Complete(4), []int{0, 1}},
		{graph.Complete(4), []int{0, 1, 2, 3}},
		{graph.Prism(3), []int{0, 1}},
		{graph.Prism(3), []int{0, 3}},
		{graph.Petersen(), []int{0, 1}},
		{graph.Petersen(), []int{0, 2}},
		{graph.Path(5), []int{0, 4}},
		{graph.Star(4), []int{1, 2}},
	}
	for _, c := range cases {
		an, err := Analyze(c.g, c.homes, 0)
		if err != nil {
			t.Fatalf("%v %v: %v", c.g, c.homes, err)
		}
		if !an.Thm21Checked {
			t.Fatalf("%v %v: Theorem 2.1 oracle undecided", c.g, c.homes)
		}
		if an.ElectSucceeds() && an.Impossible21 {
			t.Errorf("%v %v: ELECT succeeds but instance impossible — soundness broken",
				c.g, c.homes)
		}
		if an.Cayley {
			if an.CayleyElectSucceeds() == an.Impossible21 {
				t.Errorf("%v %v: CayleyElect effectualness violated: succeeds=%v impossible=%v (d=%d gcd=%d)",
					c.g, c.homes, an.CayleyElectSucceeds(), an.Impossible21, an.TranslationD, an.GCD)
			}
		}
	}
}

func TestCayleyElectAgentsAgreeOnD(t *testing.T) {
	// Regression: Q3 is a Cayley graph of two non-isomorphic groups (Z2³
	// and a Z4×Z2-type subgroup), and a naive per-map regular-subgroup
	// search can hand different agents different translation counts d —
	// one agent then reduces while the other has already declared the
	// election unsolvable, deadlocking the run. CayleyTranslationCount
	// canonicalizes the bicolored map first; every 2-agent placement on Q3
	// has d = 2 (the xor translation) and must come back unsolvable.
	g := graph.Hypercube(3)
	for other := 1; other < 8; other++ {
		res := run(t, g, []int{0, other}, int64(10+other), false,
			CayleyElect(CayleyOptions{}))
		if !res.AllUnsolvable() {
			t.Fatalf("homes {0,%d}: expected unsolvable, got %+v", other, res.Outcomes)
		}
	}
	// And d itself is stable across relabelings of the same placement.
	black := make([]int, 8)
	black[0], black[4] = 1, 1
	_, dBase, err := CayleyTranslationCount(g, black, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dBase != 2 {
		t.Fatalf("d = %d, want 2 (xor by 100 preserves the blacks)", dBase)
	}
	for trial := 0; trial < 5; trial++ {
		p := rand.New(rand.NewSource(int64(trial))).Perm(8)
		h, err := g.Relabel(p)
		if err != nil {
			t.Fatal(err)
		}
		nblack := make([]int, 8)
		for v, b := range black {
			nblack[p[v]] = b
		}
		_, d, err := CayleyTranslationCount(h, nblack, 0)
		if err != nil {
			t.Fatal(err)
		}
		if d != dBase {
			t.Fatalf("trial %d: d = %d under relabeling, want %d", trial, d, dBase)
		}
	}
}
