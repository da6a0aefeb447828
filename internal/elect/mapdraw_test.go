package elect

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/iso"
	"repro/internal/sim"
)

// runMapDraw runs MAP-DRAWING for every agent and returns the drawn maps.
func runMapDraw(t *testing.T, g *graph.Graph, homes []int, seed int64) []*Map {
	t.Helper()
	maps := make([]*Map, len(homes))
	var proto sim.Protocol = func(a *sim.Agent) (sim.Outcome, error) {
		m, err := MapDraw(a)
		if err != nil {
			return sim.Outcome{}, err
		}
		// Collect (color, map) pairs; after the run, colors are matched
		// against Result.Colors to recover agent indices (test-side only —
		// protocols cannot do this).
		collectMu.Lock()
		collected = append(collected, collectedMap{a.Color(), m})
		collectMu.Unlock()
		return sim.Outcome{}, nil
	}
	collectMu.Lock()
	collected = nil
	collectMu.Unlock()
	res, err := sim.Run(sim.Config{
		Graph: g, Homes: homes, Seed: seed, WakeAll: false,
		Timeout: 20 * time.Second,
	}, proto)
	if err != nil {
		t.Fatalf("map draw run: %v", err)
	}
	collectMu.Lock()
	defer collectMu.Unlock()
	for _, cm := range collected {
		for i := range homes {
			if res.Colors[i].Equal(cm.color) {
				maps[i] = cm.m
			}
		}
	}
	for i, m := range maps {
		if m == nil {
			t.Fatalf("agent %d produced no map", i)
		}
	}
	return maps
}

type collectedMap struct {
	color sim.Color
	m     *Map
}

var (
	collectMu sync.Mutex
	collected []collectedMap
)

func TestMapDrawReconstructsGraph(t *testing.T) {
	cases := []struct {
		name  string
		g     *graph.Graph
		homes []int
	}{
		{"path5", graph.Path(5), []int{2}},
		{"cycle6", graph.Cycle(6), []int{0, 3}},
		{"petersen", graph.Petersen(), []int{0, 1}},
		{"Q3", graph.Hypercube(3), []int{0, 7}},
		{"star4", graph.Star(4), []int{1, 2, 3}},
		{"fig2c", graph.Fig2c(), []int{0}},
		{"random", graph.RandomConnected(9, 5, 17), []int{1, 4, 7}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			maps := runMapDraw(t, c.g, c.homes, 7)
			want := iso.CanonicalSparse(iso.SparseFromGraph(c.g, BlackColors(c.g.N(), c.homes))).Word
			for i, m := range maps {
				if m.G.N() != c.g.N() || m.G.M() != c.g.M() {
					t.Fatalf("agent %d: map has n=%d m=%d, want %d %d",
						i, m.G.N(), m.G.M(), c.g.N(), c.g.M())
				}
				got := iso.CanonicalSparse(iso.SparseFromGraph(m.G, m.Colors())).Word
				if !bytes.Equal(got, want) {
					t.Fatalf("agent %d: drawn map not isomorphic to network", i)
				}
				if m.Home != 0 || !m.Black[0] {
					t.Fatalf("agent %d: home must be local node 0 and black", i)
				}
				if m.R() != len(c.homes) {
					t.Fatalf("agent %d: found %d home-bases, want %d", i, m.R(), len(c.homes))
				}
				if len(m.HomeColors[0]) != 1 || m.HomeColors[0][0].IsZero() {
					t.Fatalf("agent %d: own home color missing", i)
				}
			}
			// Distinct agents record distinct home colors.
			if len(maps) >= 2 {
				c0 := maps[0].HomeColor(maps[0].Home)
				c1 := maps[1].HomeColor(maps[1].Home)
				if c0.Equal(c1) {
					t.Fatal("two agents share a home color")
				}
			}
		})
	}
}

func TestMapDrawMovesLinearInEdges(t *testing.T) {
	// MAP-DRAWING should cost at most ~4|E| moves (DFS with backtracking
	// plus known-node probes).
	for _, g := range []*graph.Graph{graph.Cycle(12), graph.Hypercube(4), graph.Petersen()} {
		res, err := sim.Run(sim.Config{
			Graph: g, Homes: []int{0}, Seed: 3, WakeAll: true,
		}, func(a *sim.Agent) (sim.Outcome, error) {
			_, err := MapDraw(a)
			return sim.Outcome{}, err
		})
		if err != nil {
			t.Fatal(err)
		}
		bound := int64(4 * g.M())
		if res.Moves[0] > bound {
			t.Errorf("%v: map-drawing took %d moves, bound %d", g, res.Moves[0], bound)
		}
	}
}

func TestMapDrawEndsAtHome(t *testing.T) {
	g := graph.Petersen()
	_, err := sim.Run(sim.Config{Graph: g, Homes: []int{4}, Seed: 5, WakeAll: true},
		func(a *sim.Agent) (sim.Outcome, error) {
			if _, err := MapDraw(a); err != nil {
				return sim.Outcome{}, err
			}
			var home bool
			err := a.Access(func(b *sim.Board) {
				home = b.Signs().HasBy(a.Color(), sim.TagHome)
			})
			if err != nil {
				return sim.Outcome{}, err
			}
			if !home {
				return sim.Outcome{}, errors.New("agent not at home after map-drawing")
			}
			return sim.Outcome{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMapDrawWakesSleepers(t *testing.T) {
	// With WakeAll=false only a random subset starts; map-drawing must wake
	// the rest (they complete the protocol too, proven by Run returning
	// without timeout).
	for seed := int64(0); seed < 5; seed++ {
		g := graph.Cycle(8)
		res, err := sim.Run(sim.Config{
			Graph: g, Homes: []int{0, 2, 5}, Seed: seed, WakeAll: false,
			Timeout: 20 * time.Second,
		}, func(a *sim.Agent) (sim.Outcome, error) {
			m, err := MapDraw(a)
			if err != nil {
				return sim.Outcome{}, err
			}
			if m.R() != 3 {
				return sim.Outcome{}, fmt.Errorf("saw %d home-bases", m.R())
			}
			return sim.Outcome{Role: sim.RoleDefeated}, nil
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, o := range res.Outcomes {
			if o.Role != sim.RoleDefeated {
				t.Fatalf("seed %d: agent %d never completed", seed, i)
			}
		}
	}
}

func TestFromTwinsRejectsBadWiring(t *testing.T) {
	// Self-twin.
	if _, err := graph.FromTwins([][][2]int{{{0, 0}}}); err == nil {
		t.Error("self-twin accepted")
	}
	// Non-involution.
	if _, err := graph.FromTwins([][][2]int{{{1, 0}}, {{0, 0}, {0, 0}}}); err == nil {
		t.Error("non-involution accepted")
	}
	// Valid K2.
	g, err := graph.FromTwins([][][2]int{{{1, 0}}, {{0, 0}}})
	if err != nil || g.N() != 2 || g.M() != 1 {
		t.Errorf("K2 wiring rejected: %v", err)
	}
	// Valid loop.
	g, err = graph.FromTwins([][][2]int{{{0, 1}, {0, 0}}})
	if err != nil || g.M() != 1 || g.Deg(0) != 2 {
		t.Errorf("loop wiring rejected: %v", err)
	}
}
