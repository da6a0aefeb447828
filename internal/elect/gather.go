package elect

import (
	"errors"

	"repro/internal/order"
	"repro/internal/sim"
)

// tagGathered is written by each agent on the rendezvous node's whiteboard.
const tagGathered = "gathered"

// Gather returns the rendezvous protocol built on Protocol ELECT, realizing
// the paper's footnote 2: "Once a leader is elected, many other
// computational tasks become straightforward. Such is the case for the
// gathering or rendezvous problem."
//
// Every agent runs ELECT; if a leader emerges, the defeated agents look up
// the leader's home-base on their own maps (they know the leader's color
// from the announcement, and MAP-DRAWING recorded which home-base carries
// which color), walk there, and stamp the board. All agents — leader
// included — wait until all r stamps are present, so when the protocol
// returns successfully every agent is physically at the rendezvous node and
// knows the gathering is complete. If ELECT determines election (and hence
// this gathering strategy) impossible, every agent reports unsolvable. Like
// Elect's, its agents share one COMPUTE & ORDER memo.
func Gather(opt Options) sim.Protocol {
	memo := new(order.Memo)
	return func(a *sim.Agent) (sim.Outcome, error) {
		m, err := MapDraw(a)
		if err != nil {
			return sim.Outcome{}, err
		}
		k := newKnowledge(a, m, opt.Ordering, memo)
		out, err := runReduction(k)
		if err != nil || out.Role == sim.RoleUnsolvable {
			return out, err
		}
		r := m.R()
		var target int
		switch out.Role {
		case sim.RoleLeader:
			target = m.Home
		case sim.RoleDefeated:
			target = -1
			for v, cs := range m.HomeColors {
				for _, c := range cs {
					if c.Equal(out.Leader) {
						target = v
						break
					}
				}
				if target != -1 {
					break
				}
			}
			if target == -1 {
				return sim.Outcome{}, errors.New("elect: leader's home-base not on the map")
			}
		default:
			return sim.Outcome{}, errors.New("elect: reduction ended in an unexpected role")
		}
		if err := k.moveTo(target); err != nil {
			return sim.Outcome{}, err
		}
		if err := k.a.Access(func(b *sim.Board) { b.Write(tagGathered) }); err != nil {
			return sim.Outcome{}, err
		}
		if _, err := k.a.Wait(func(ss sim.Signs) bool {
			return ss.CountColors(tagGathered) >= r
		}); err != nil {
			return sim.Outcome{}, err
		}
		return out, nil
	}
}
