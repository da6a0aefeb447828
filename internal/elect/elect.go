package elect

import (
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Options configures the ELECT protocol family.
type Options struct {
	// Ordering selects the ≺ implementation (Lemma 3.1); Direct by default.
	Ordering order.Ordering
	// NoSkip disables the no-op-phase skip (the literal Figure 3 loops) —
	// an ablation that demonstrates why Theorem 3.1's cost accounting needs
	// the skip (DESIGN.md §6, finding 3). Correctness is unaffected.
	NoSkip bool
}

// Elect returns the Protocol ELECT of Section 3 (Figure 3): MAP-DRAWING,
// COMPUTE & ORDER on the automorphism-equivalence classes, then the gcd
// reduction by AGENT-REDUCE and NODE-REDUCE. It elects a leader iff
// gcd(|C_1|, …, |C_k|) = 1 and otherwise lets every agent report that the
// election failed (Theorem 3.1).
//
// COMPUTE & ORDER is a function of the drawn map's isomorphism class, so
// all the agents the returned protocol runs, in any number of runs, share
// one order.Memo of it; the protocol is safe to share across concurrent
// runs. A memo hit changes no move, board access or decision, only local
// time (DESIGN.md §6).
func Elect(opt Options) sim.Protocol {
	memo := new(order.Memo)
	return func(a *sim.Agent) (sim.Outcome, error) {
		m, err := MapDraw(a)
		if err != nil {
			return sim.Outcome{}, err
		}
		k := newKnowledge(a, m, opt.Ordering, memo)
		return runReductionOpt(k, opt.NoSkip)
	}
}

// runReduction executes the reduction schedule and the final announcement
// for one agent, given its COMPUTE & ORDER result.
func runReduction(k *knowledge) (sim.Outcome, error) {
	return runReductionOpt(k, false)
}

func runReductionOpt(k *knowledge, noSkip bool) (sim.Outcome, error) {
	// Shared-home extension (Section 1.2's "all our results extend"):
	// co-located agents first race on their own whiteboard; exactly one
	// champion per home-base stays active, the rest retire immediately.
	// Local races need no symmetry argument — the board mutex breaks the
	// tie — and the weights stay visible to the class computation (weights
	// are the node colors), so no solvable asymmetry is lost. After the
	// championship at most one agent is active per node and the reduction
	// proceeds exactly as in the paper, over node counts.
	champion := true
	if k.m.Weight[k.m.Home] > 1 {
		if err := k.accessHome(func(b *sim.Board) {
			if !b.Signs().Has(tagChampion) {
				b.Write(tagChampion)
			} else {
				champion = false
			}
		}); err != nil {
			return sim.Outcome{}, err
		}
	}
	sc := computeScheduleOpt(k.ord.Sizes(), k.ord.NumBlack, noSkip)
	st := &agentState{k: k, inD: champion && k.myClass() == 0}
	if !champion {
		if err := st.goPassive(); err != nil {
			return sim.Outcome{}, err
		}
	}
	for i := range sc.phases {
		plan := &sc.phases[i]
		var err error
		switch plan.kind {
		case phaseAgent:
			err = runAgentReducePhase(st, i, plan)
		case phaseNode:
			err = runNodeReducePhase(st, i, plan)
		}
		if err != nil {
			return sim.Outcome{}, err
		}
	}
	return announce(st, sc)
}

// announce finishes the protocol: the unique survivor (if the reduction
// reached 1) tours the network proclaiming itself leader; if the reduction
// stopped at d > 1 the survivors proclaim failure; everyone else waits at
// home for one of the two proclamations.
func announce(st *agentState, sc *schedule) (sim.Outcome, error) {
	k := st.k
	k.a.SetPhase(telemetry.PhaseAnnounce)
	sp := k.a.Span("announce")
	defer sp.End()
	if st.inD {
		if sc.finalD == 1 {
			// I am the unique survivor: the leader.
			if err := k.writeEverywhere(tagLeader); err != nil {
				return sim.Outcome{}, err
			}
			return sim.Outcome{Role: sim.RoleLeader, Leader: k.a.Color()}, nil
		}
		// Election is impossible: inform everyone.
		if err := k.writeEverywhere(tagFailed); err != nil {
			return sim.Outcome{}, err
		}
		return sim.Outcome{Role: sim.RoleUnsolvable}, nil
	}
	ss, err := k.waitHome(func(ss sim.Signs) bool {
		return ss.Has(tagLeader) || ss.Has(tagFailed)
	})
	if err != nil {
		return sim.Outcome{}, err
	}
	if leaders := ss.Colors(tagLeader); len(leaders) == 1 {
		return sim.Outcome{Role: sim.RoleDefeated, Leader: leaders[0]}, nil
	}
	return sim.Outcome{Role: sim.RoleUnsolvable}, nil
}
