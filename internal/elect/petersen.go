package elect

import (
	"errors"
	"fmt"

	"repro/internal/order"
	"repro/internal/sim"
)

// PetersenElect is the bespoke five-step protocol of Section 4 that elects a
// leader on the Petersen graph with two agents at adjacent home-bases — the
// instance where Protocol ELECT fails (gcd of the class sizes is 2) although
// election is possible. The steps, per agent:
//
//  1. wake the other agent (done by MAP-DRAWING);
//  2. go to a neighbor of your home-base distinct from the other agent's
//     home-base and mark its whiteboard;
//  3. find which neighbor of the other agent's home-base it marked;
//  4. try to acquire the unique common neighbor of the two marked nodes;
//  5. the acquirer is the leader, the other agent is defeated.
//
// The girth-5 structure of the Petersen graph guarantees the two marked
// nodes are distinct, non-adjacent, and have a unique common neighbor.
func PetersenElect() sim.Protocol {
	return func(a *sim.Agent) (sim.Outcome, error) {
		m, err := MapDraw(a)
		if err != nil {
			return sim.Outcome{}, err
		}
		if m.G.N() != 10 || m.R() != 2 {
			return sim.Outcome{}, errors.New("elect: PetersenElect needs the Petersen graph with exactly 2 agents")
		}
		if reg, d := m.G.IsRegular(); !reg || d != 3 {
			return sim.Outcome{}, errors.New("elect: PetersenElect needs a cubic graph")
		}
		other := -1
		for v, b := range m.Black {
			if b && v != m.Home {
				other = v
			}
		}
		if other == -1 {
			return sim.Outcome{}, errors.New("elect: second home-base not found")
		}
		if !m.G.HasEdge(m.Home, other) {
			return sim.Outcome{}, errors.New("elect: PetersenElect requires adjacent home-bases")
		}
		if m.Weight[m.Home] != 1 || m.Weight[other] != 1 {
			return sim.Outcome{}, errors.New("elect: PetersenElect requires one agent per home-base")
		}
		otherColor := m.HomeColor(other)
		k := newKnowledge(a, m, order.Direct)

		// Step 2: mark a neighbor of home distinct from the other home-base.
		myMark := -1
		for _, v := range m.G.NeighborSet(m.Home) {
			if v != other {
				myMark = v
				break
			}
		}
		if err := k.moveTo(myMark); err != nil {
			return sim.Outcome{}, err
		}
		if err := k.a.Access(func(b *sim.Board) { b.Write("mark") }); err != nil {
			return sim.Outcome{}, err
		}
		// Announce at home that marking is done, so the other agent's wait
		// below has a trigger.
		if err := k.accessHome(func(b *sim.Board) { b.Write("marked") }); err != nil {
			return sim.Outcome{}, err
		}

		// Step 3: wait for the other agent to have marked, then inspect its
		// home-base's neighbors for its mark.
		if err := k.moveTo(other); err != nil {
			return sim.Outcome{}, err
		}
		if _, err := k.a.Wait(func(ss sim.Signs) bool {
			return ss.HasBy(otherColor, "marked")
		}); err != nil {
			return sim.Outcome{}, err
		}
		otherMark := -1
		for _, v := range m.G.NeighborSet(other) {
			if v == m.Home {
				continue
			}
			if err := k.moveTo(v); err != nil {
				return sim.Outcome{}, err
			}
			var found bool
			if err := k.a.Access(func(b *sim.Board) {
				found = b.Signs().HasBy(otherColor, "mark")
			}); err != nil {
				return sim.Outcome{}, err
			}
			if found {
				otherMark = v
				break
			}
		}
		if otherMark == -1 {
			return sim.Outcome{}, errors.New("elect: other agent's mark not found")
		}

		// Step 4: the unique common neighbor of the two marked nodes.
		x := -1
		for _, v := range m.G.NeighborSet(myMark) {
			if m.G.HasEdge(v, otherMark) {
				if x != -1 {
					return sim.Outcome{}, fmt.Errorf("elect: common neighbor not unique (%d and %d)", x, v)
				}
				x = v
			}
		}
		if x == -1 {
			return sim.Outcome{}, errors.New("elect: no common neighbor of the marked nodes")
		}
		if err := k.moveTo(x); err != nil {
			return sim.Outcome{}, err
		}
		var won bool
		var winner sim.Color
		if err := k.a.Access(func(b *sim.Board) {
			cs := b.Signs().Colors("acq")
			if len(cs) == 0 {
				b.Write("acq")
				won = true
				return
			}
			winner = cs[0]
		}); err != nil {
			return sim.Outcome{}, err
		}
		if won {
			return sim.Outcome{Role: sim.RoleLeader, Leader: a.Color()}, nil
		}
		return sim.Outcome{Role: sim.RoleDefeated, Leader: winner}, nil
	}
}
