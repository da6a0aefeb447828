package elect

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/labeling"
	"repro/internal/order"
	"repro/internal/sim"
)

func runShared(t *testing.T, g *graph.Graph, homes []int, seed int64, p sim.Protocol) *sim.Result {
	t.Helper()
	res, err := sim.Run(sim.Config{
		Graph: g, Homes: homes, Seed: seed, WakeAll: false,
		MaxDelay:         100 * time.Microsecond,
		Timeout:          60 * time.Second,
		AllowSharedHomes: true,
	}, p)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return res
}

// TestSharedHomesSuite exercises the Section 1.2 extension: several agents
// per starting node. The expected solvability is the weighted-class gcd,
// cross-validated against the exact Theorem 2.1 oracle (weights as node
// colors) on every instance.
func TestSharedHomesSuite(t *testing.T) {
	cases := []struct {
		name    string
		g       *graph.Graph
		homes   []int
		succeed bool
	}{
		// Two agents on one node of K2: the local race decides — solvable.
		{"K2-colocated", graph.Path(2), []int{0, 0}, true},
		// Two agents co-located on a cycle: the weighted class {0} is a
		// singleton — solvable, unlike the antipodal 1+1 placement.
		{"C5-colocated", graph.Cycle(5), []int{0, 0}, true},
		{"C6-colocated", graph.Cycle(6), []int{0, 0}, true},
		// 2+2 antipodal co-located pairs: the rotation preserves weights —
		// impossible.
		{"C4-2+2", graph.Cycle(4), []int{0, 0, 2, 2}, false},
		{"C6-2+2", graph.Cycle(6), []int{0, 0, 3, 3}, false},
		// 2+1 antipodal: the weight asymmetry breaks the rotation —
		// solvable although the 1+1 support placement is impossible.
		{"C4-2+1", graph.Cycle(4), []int{0, 0, 2}, true},
		{"C6-2+1", graph.Cycle(6), []int{0, 0, 3}, true},
		// Mixed: a pair and two singles on a cycle.
		{"C8-mixed", graph.Cycle(8), []int{0, 0, 2, 5}, true},
		// Q3: co-located pair plus a single at the antipode.
		{"Q3-2+1", graph.Hypercube(3), []int{0, 0, 7}, true},
		// Fully loaded K2 pairs: 2+2 on the two nodes — impossible.
		{"K2-2+2", graph.Path(2), []int{0, 0, 1, 1}, false},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			// Oracle cross-checks.
			colors := BlackColors(c.g.N(), c.homes)
			o := order.ComputeAndOrder(c.g, colors, order.Direct)
			if (o.GCD() == 1) != c.succeed {
				t.Fatalf("gcd oracle %d disagrees with expectation %v (sizes %v)",
					o.GCD(), c.succeed, o.Sizes())
			}
			w, err := labeling.ExistsSymmetricLabeling(c.g, colors, 0)
			if err != nil {
				t.Fatal(err)
			}
			if (w == nil) != c.succeed {
				t.Fatalf("Theorem 2.1 oracle (symmetric labeling exists=%v) disagrees with expectation %v",
					w != nil, c.succeed)
			}
			for seed := int64(1); seed <= 3; seed++ {
				res := runShared(t, c.g, c.homes, seed, Elect(Options{}))
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

// TestSharedHomesMapDraw: the drawn map records weights and all co-located
// colors.
func TestSharedHomesMapDraw(t *testing.T) {
	g := graph.Cycle(5)
	res, err := sim.Run(sim.Config{
		Graph: g, Homes: []int{0, 0, 2}, Seed: 4, WakeAll: true,
		AllowSharedHomes: true,
	}, func(a *sim.Agent) (sim.Outcome, error) {
		m, err := MapDraw(a)
		if err != nil {
			return sim.Outcome{}, err
		}
		if m.R() != 3 {
			return sim.Outcome{}, errFmt("R() = %d, want 3", m.R())
		}
		totalW := 0
		pairNodes := 0
		for v, w := range m.Weight {
			totalW += w
			if w == 2 {
				pairNodes++
				if len(m.HomeColors[v]) != 2 {
					return sim.Outcome{}, errFmt("weight-2 node lists %d colors", len(m.HomeColors[v]))
				}
				if m.HomeColors[v][0].Equal(m.HomeColors[v][1]) {
					return sim.Outcome{}, errFmt("co-located agents share a color")
				}
			}
		}
		if totalW != 3 || pairNodes != 1 {
			return sim.Outcome{}, errFmt("weights wrong: total %d pairs %d", totalW, pairNodes)
		}
		return sim.Outcome{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range res.Errors {
		if e != nil {
			t.Fatalf("agent %d: %v", i, e)
		}
	}
}

// TestSharedHomesCayley: the Section 4 decision under weights.
func TestSharedHomesCayley(t *testing.T) {
	// C4 with 2+2: the rotation by 2 is a weight-preserving translation.
	res := runShared(t, graph.Cycle(4), []int{0, 0, 2, 2}, 2, CayleyElect(CayleyOptions{}))
	if !res.AllUnsolvable() {
		t.Fatalf("C4 2+2: expected unsolvable, got %+v", res.Outcomes)
	}
	// C4 with 2+1: no weight-preserving translation; the champion of the
	// weight-2 node wins.
	res = runShared(t, graph.Cycle(4), []int{0, 0, 2}, 2, CayleyElect(CayleyOptions{}))
	if !res.AgreedLeader() {
		t.Fatalf("C4 2+1: expected leader, got %+v", res.Outcomes)
	}
}

// TestSharedHomesGather: gathering also works with co-located starts.
func TestSharedHomesGather(t *testing.T) {
	res := runShared(t, graph.Cycle(6), []int{0, 0, 2}, 3, Gather(Options{}))
	if !res.AgreedLeader() {
		t.Fatalf("expected gathered leader, got %+v", res.Outcomes)
	}
}

// TestSharedHomesQuantitative: the baseline is untouched by co-location.
func TestSharedHomesQuantitative(t *testing.T) {
	res, err := sim.Run(sim.Config{
		Graph: graph.Cycle(6), Homes: []int{0, 0, 3, 3}, Seed: 5, WakeAll: false,
		AllowSharedHomes: true, QuantitativeIDs: true,
		Timeout: 60 * time.Second,
	}, QuantitativeElect())
	if err != nil {
		t.Fatal(err)
	}
	if !res.AgreedLeader() {
		t.Fatalf("quantitative with shared homes: %+v", res.Outcomes)
	}
}

func errFmt(format string, args ...any) error {
	return fmt.Errorf("elect: "+format, args...)
}

// TestSharedHomesOneLeaderEitherOrdering: with shared homes two classes
// can differ only in weight. The hair order keys a node's weight as its
// tail count, so under either ordering every run elects exactly one
// leader, whichever numbering each agent's map carries.
func TestSharedHomesOneLeaderEitherOrdering(t *testing.T) {
	cases := []struct {
		name  string
		g     *graph.Graph
		homes []int
	}{
		{"P3-2+1", graph.Path(3), []int{0, 0, 2}},
		{"C4-2+1", graph.Cycle(4), []int{0, 0, 2}},
		{"C6-2+1", graph.Cycle(6), []int{0, 0, 3}},
		{"star3-2+1+1", graph.Star(3), []int{1, 1, 2, 3}},
	}
	for _, c := range cases {
		for name, ord := range map[string]order.Ordering{"direct": order.Direct, "hairs": order.Hairs} {
			c, ord := c, ord
			t.Run(c.name+"/"+name, func(t *testing.T) {
				t.Parallel()
				p := Elect(Options{Ordering: ord})
				for seed := int64(1); seed <= 100; seed++ {
					res, err := sim.Run(sim.Config{
						Graph: c.g, Homes: c.homes, Seed: seed, WakeAll: true,
						AllowSharedHomes: true,
					}, p)
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					if !res.AgreedLeader() {
						t.Fatalf("seed %d: want exactly one agreed leader, got %+v", seed, res.Outcomes)
					}
				}
			})
		}
	}
}
