package elect

import (
	"repro/internal/sim"
)

// Navigator exposes map-based navigation to custom protocol authors: after
// MAP-DRAWING, it can mark every whiteboard and wait at the home-base —
// the same primitives the built-in protocols use.
type Navigator struct {
	k *knowledge
}

// NewNavigator builds a Navigator for an agent that has drawn its map.
func NewNavigator(a *sim.Agent, m *Map) *Navigator {
	return &Navigator{k: &knowledge{a: a, m: m, at: m.Home}}
}

// init of the tour is lazy: knowledge.buildTour needs the classes only for
// protocol scheduling; navigation needs just the DFS tree.
func (n *Navigator) ensureTour() {
	if n.k.tour == nil {
		n.k.buildTour()
	}
}

// WriteEverywhere tours the whole network writing the colored tag on every
// whiteboard and returns to the home-base.
func (n *Navigator) WriteEverywhere(tag string) error {
	n.ensureTour()
	return n.k.writeEverywhere(tag)
}

// WaitHome returns to the home-base and blocks until pred holds on its
// whiteboard.
func (n *Navigator) WaitHome(pred func(sim.Signs) bool) (sim.Signs, error) {
	n.ensureTour()
	return n.k.waitHome(pred)
}
