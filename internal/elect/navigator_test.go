package elect

import (
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

func TestNavigatorPrimitives(t *testing.T) {
	g := graph.Petersen()
	res, err := sim.Run(sim.Config{
		Graph: g, Homes: []int{0, 5}, Seed: 21, WakeAll: true,
	}, func(a *sim.Agent) (sim.Outcome, error) {
		m, err := MapDraw(a)
		if err != nil {
			return sim.Outcome{}, err
		}
		nav := NewNavigator(a, m)
		if nav.k.at != m.Home {
			return sim.Outcome{}, errors.New("navigator does not start at home")
		}
		// Write everywhere, then verify via a second tour that every board
		// carries our sign.
		if err := nav.WriteEverywhere("nav-mark"); err != nil {
			return sim.Outcome{}, err
		}
		missing := 0
		if err := nav.k.tourAll(func(local int, b *sim.Board) {
			if !b.Signs().HasBy(a.Color(), "nav-mark") {
				missing++
			}
		}); err != nil {
			return sim.Outcome{}, err
		}
		if missing > 0 {
			return sim.Outcome{}, errors.New("marks missing after WriteEverywhere")
		}
		// WaitHome sees the other agent's mark eventually (both agents mark
		// everywhere, including each other's homes).
		if _, err := nav.WaitHome(func(ss sim.Signs) bool {
			return len(ss.Colors("nav-mark")) >= 2
		}); err != nil {
			return sim.Outcome{}, err
		}
		return sim.Outcome{Role: sim.RoleDefeated}, nil
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
