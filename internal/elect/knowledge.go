package elect

import (
	"fmt"

	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// knowledge is everything an agent derives locally from its map after
// MAP-DRAWING: the ordered equivalence classes (COMPUTE & ORDER), the gcd
// reduction schedule, and navigation plans. It lives entirely in the agent's
// own coordinates.
type knowledge struct {
	a   *sim.Agent
	m   *Map
	ord *order.Ordered

	at    int   // current local node
	tour  []int // DFS preorder of nodes (tour visits them in this order)
	par   []int // DFS tree parent
	depth []int // DFS tree depth (home is 0)
	down  []int // moveTo's descent, target first; reused across calls
}

// newKnowledge runs COMPUTE & ORDER on a drawn map, through memo, the one
// the protocol value shares among all the agents it runs.
func newKnowledge(a *sim.Agent, m *Map, ord order.Ordering, memo *order.Memo) *knowledge {
	a.SetPhase(telemetry.PhaseOrder)
	sp := a.Span("compute-and-order")
	k := &knowledge{a: a, m: m, at: m.Home}
	k.ord = memo.ComputeAndOrder(m.G, m.Colors(), ord)
	k.buildTour()
	sp.End()
	return k
}

// buildTour computes a DFS tree of the map rooted at home; a full traversal
// follows the tree with backtracking (2(n−1) moves).
func (k *knowledge) buildTour() {
	n := k.m.G.N()
	k.par = make([]int, n)
	k.depth = make([]int, n)
	for i := range k.par {
		k.par[i] = -1
	}
	k.par[k.m.Home] = k.m.Home
	var pre []int
	var dfs func(v int)
	dfs = func(v int) {
		pre = append(pre, v)
		for _, h := range k.m.G.Ports(v) {
			if k.par[h.To] == -1 {
				k.par[h.To] = v
				k.depth[h.To] = k.depth[v] + 1
				dfs(h.To)
			}
		}
	}
	dfs(k.m.Home)
	k.tour = pre
}

// moveTo walks the agent from its current node to the target local node
// along DFS-tree paths (up to the common ancestor, then down).
func (k *knowledge) moveTo(target int) error {
	// Climb from both ends to the common ancestor, recording the target's
	// side for the descent.
	anc, down := k.at, k.down[:0]
	for k.depth[target] > k.depth[anc] {
		down = append(down, target)
		target = k.par[target]
	}
	for k.depth[anc] > k.depth[target] {
		anc = k.par[anc]
	}
	for anc != target {
		down = append(down, target)
		target, anc = k.par[target], k.par[anc]
	}
	k.down = down
	for k.at != anc {
		if err := k.step(k.par[k.at]); err != nil {
			return err
		}
	}
	for i := len(down) - 1; i >= 0; i-- {
		if err := k.step(down[i]); err != nil {
			return err
		}
	}
	return nil
}

// step moves across one edge to an adjacent local node.
func (k *knowledge) step(next int) error {
	for p, h := range k.m.G.Ports(k.at) {
		if h.To == next {
			if _, err := k.a.Move(k.m.Syms[k.at][p]); err != nil {
				return err
			}
			k.at = next
			return nil
		}
	}
	return fmt.Errorf("elect: %d not adjacent to %d", next, k.at)
}

// tourAll visits every node of the map in DFS order, invoking f at each
// (including home, first), and returns the agent to its home-base.
func (k *knowledge) tourAll(f func(local int, b *sim.Board)) error {
	for _, v := range k.tour {
		if err := k.moveTo(v); err != nil {
			return err
		}
		if f != nil {
			if err := k.a.Access(func(b *sim.Board) { f(v, b) }); err != nil {
				return err
			}
		}
	}
	return k.moveTo(k.m.Home)
}

// writeEverywhere tours the network writing the tag on every whiteboard.
func (k *knowledge) writeEverywhere(tag string) error {
	return k.tourAll(func(_ int, b *sim.Board) { b.Write(tag) })
}

// waitHome blocks at the home-base until pred holds on its whiteboard.
func (k *knowledge) waitHome(pred func(sim.Signs) bool) (sim.Signs, error) {
	if err := k.moveTo(k.m.Home); err != nil {
		return nil, err
	}
	return k.a.Wait(pred)
}

// accessHome runs f on the home whiteboard.
func (k *knowledge) accessHome(f func(b *sim.Board)) error {
	if err := k.moveTo(k.m.Home); err != nil {
		return err
	}
	return k.a.Access(f)
}

// myClass returns the index (in protocol order) of the agent's home class.
func (k *knowledge) myClass() int { return k.ord.ClassOf[k.m.Home] }

// classNodes returns the local nodes of class i.
func (k *knowledge) classNodes(i int) []int { return k.ord.Classes[i] }

// isHomeBase reports whether local node v is a home-base.
func (k *knowledge) isHomeBase(v int) bool { return k.m.Black[v] }
