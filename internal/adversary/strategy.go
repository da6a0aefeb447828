package adversary

import (
	"fmt"
	"sort"

	"repro/internal/lazyrand"
	"repro/internal/sim"
)

// Maker constructs a seeded scheduling strategy. classOf maps each agent
// index to the automorphism-equivalence class of its home node (the
// COMPUTE & ORDER classes); strategies that do not target symmetry ignore it.
type Maker func(seed int64, classOf []int) sim.Strategy

// The built-in strategy names, in sweep order.
const (
	StratRandom    = "random"
	StratRR        = "round-robin"
	StratStarve    = "starve"
	StratConvoy    = "convoy"
	StratLockstep  = "lockstep"
	StratSameClass = "same-class"
)

var registry = map[string]Maker{
	StratRandom: func(seed int64, _ []int) sim.Strategy { return Random(seed) },
	StratRR:     func(int64, []int) sim.Strategy { return RoundRobin() },
	StratStarve: func(seed int64, classOf []int) sim.Strategy {
		// Rotate the victim with the seed so a sweep starves each agent.
		r := len(classOf)
		if r == 0 {
			r = 1
		}
		return Starve(int(uint64(seed) % uint64(r)))
	},
	StratConvoy:    func(seed int64, _ []int) sim.Strategy { return Convoy(16, seed) },
	StratLockstep:  func(int64, []int) sim.Strategy { return Lockstep() },
	StratSameClass: func(_ int64, classOf []int) sim.Strategy { return SameClass(classOf) },
}

// Strategies returns the built-in strategy names in sweep order.
func Strategies() []string {
	return []string{StratRandom, StratRR, StratStarve, StratConvoy, StratLockstep, StratSameClass}
}

// NewStrategy builds a named strategy. Unknown names list the registry in
// the error so CLI typos are self-explanatory.
func NewStrategy(name string, seed int64, classOf []int) (sim.Strategy, error) {
	mk, ok := registry[name]
	if !ok {
		known := Strategies()
		sort.Strings(known)
		return nil, fmt.Errorf("adversary: unknown strategy %q (have %v)", name, known)
	}
	return mk(seed, classOf), nil
}

// Random picks uniformly among the ready agents — the baseline adversary,
// equivalent in distribution to the engine's default delay injection but
// with a recordable decision log.
func Random(seed int64) sim.Strategy {
	rng := lazyrand.New(seed)
	return sim.StrategyFunc(func(ready []int, step int) int {
		return ready[rng.Intn(len(ready))]
	})
}

// RoundRobin cycles through the agents in index order, skipping the ones
// that are not ready — the maximally fair schedule.
func RoundRobin() sim.Strategy {
	last := -1
	return sim.StrategyFunc(func(ready []int, step int) int {
		for _, a := range ready {
			if a > last {
				last = a
				return a
			}
		}
		last = ready[0]
		return ready[0]
	})
}

// Starve lets every agent except the victim run whenever possible: the
// victim only steps when it is the sole ready agent. This is the legal
// worst case of the paper's adversary — starvation must not break safety,
// only delay the victim's progress (the engine never lets a strategy stall
// a run whose only ready agent is the victim).
func Starve(victim int) sim.Strategy {
	return sim.StrategyFunc(func(ready []int, step int) int {
		for _, a := range ready {
			if a != victim {
				return a
			}
		}
		return ready[0]
	})
}

// Convoy drives one agent in bursts: the chosen agent keeps the schedule
// for up to `burst` consecutive steps before the convoy moves (randomly) to
// another agent. Long exclusive bursts exercise the whiteboard protocols'
// tolerance to one agent racing far ahead of the others.
func Convoy(burst int, seed int64) sim.Strategy {
	if burst < 1 {
		burst = 1
	}
	rng := lazyrand.New(seed)
	current, left := -1, 0
	return sim.StrategyFunc(func(ready []int, step int) int {
		if left > 0 {
			for _, a := range ready {
				if a == current {
					left--
					return a
				}
			}
		}
		current = ready[rng.Intn(len(ready))]
		left = burst - 1
		return current
	})
}

// Lockstep keeps all agents at the same execution depth: it always grants
// the ready agent with the fewest steps taken so far (ties to the lowest
// index). Symmetric agents therefore reach their symmetry-breaking
// operations as close to simultaneously as the serialized model allows.
func Lockstep() sim.Strategy {
	var steps []int
	return sim.StrategyFunc(func(ready []int, step int) int {
		pick := ready[0]
		for _, a := range ready {
			if a >= len(steps) {
				grown := make([]int, a+1)
				copy(grown, steps)
				steps = grown
			}
			if steps[a] < steps[pick] {
				pick = a
			}
		}
		steps[pick]++
		return pick
	})
}

// SameClass is the greedy symmetry attacker: among the ready agents it
// restricts to the automorphism class with the most ready members — the
// agents the protocol must separate by schedule-independent means — and
// runs that class in lockstep. AGENT-REDUCE and NODE-REDUCE break symmetry
// through whiteboard races; this strategy forces the racers to arrive
// together, maximizing same-class concurrency at the matching steps.
func SameClass(classOf []int) sim.Strategy {
	var steps []int
	class := func(a int) int {
		if a < len(classOf) {
			return classOf[a]
		}
		return 0
	}
	return sim.StrategyFunc(func(ready []int, step int) int {
		// Pick the class with the most ready members (ties to smallest id).
		members := map[int]int{}
		for _, a := range ready {
			members[class(a)]++
		}
		best, bestN := 0, -1
		for c, n := range members {
			if n > bestN || (n == bestN && c < best) {
				best, bestN = c, n
			}
		}
		pick := -1
		for _, a := range ready {
			if class(a) != best {
				continue
			}
			if a >= len(steps) {
				grown := make([]int, a+1)
				copy(grown, steps)
				steps = grown
			}
			if pick == -1 || steps[a] < steps[pick] {
				pick = a
			}
		}
		steps[pick]++
		return pick
	})
}
