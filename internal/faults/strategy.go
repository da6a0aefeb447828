package faults

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// The built-in fault strategy names, in sweep order. Each is a
// deterministic function of its seed and the run's injection-point
// sequence, so the same (instance, schedule strategy, seed, fault strategy)
// always injects the same plan.
const (
	// FaultCrashFrontrunner crash-stops the agent that has consumed the
	// most sequence points so far — the one leading the race — once the run
	// is warm. Seed parity decides whether the lock is abandoned.
	FaultCrashFrontrunner = "crash-frontrunner"
	// FaultCrashNodeReduce crash-stops an agent at a seed-chosen sequence
	// point inside the NODE-REDUCE phase, the stage whose exact-count races
	// are most sensitive to a participant vanishing.
	FaultCrashNodeReduce = "crash-node-reduce"
	// FaultCrashLockholder crash-stops a seed-chosen agent early, always
	// abandoning its node lock — the dedicated probe for the stall-and-
	// takeover recovery path.
	FaultCrashLockholder = "crash-lockholder"
	// FaultTornHomebase tears a seed-chosen sign write landing on a
	// home-base whiteboard, crash-stopping the writer mid-access.
	FaultTornHomebase = "torn-homebase"
	// FaultStaleReads injects bounded read staleness on a seed-chosen
	// subset of Wait predicate checks; no agent crashes.
	FaultStaleReads = "stale-reads"
)

// maker builds the decision function of a named strategy.
type maker func(seed int64, r int, homes []int) func(sim.FaultPoint) sim.FaultAction

var registry = map[string]maker{
	FaultCrashFrontrunner: crashFrontrunner,
	FaultCrashNodeReduce:  crashNodeReduce,
	FaultCrashLockholder:  crashLockholder,
	FaultTornHomebase:     tornHomebase,
	FaultStaleReads:       staleReads,
}

// Strategies returns the built-in fault strategy names in sweep order.
func Strategies() []string {
	return []string{
		FaultCrashFrontrunner, FaultCrashNodeReduce, FaultCrashLockholder,
		FaultTornHomebase, FaultStaleReads,
	}
}

// New builds a recording injector for the named strategy. r is the agent
// count and homes the home-base nodes of the instance (strategies that do
// not target homes ignore them). Unknown names list the registry.
func New(name string, seed int64, r int, homes []int) (*Injector, error) {
	mk, ok := registry[name]
	if !ok {
		known := Strategies()
		sort.Strings(known)
		return nil, fmt.Errorf("faults: unknown fault strategy %q (have %v)", name, known)
	}
	if r <= 0 {
		r = 1
	}
	return &Injector{name: name, decide: mk(seed, r, homes)}, nil
}

// split64 folds a seed into small deterministic knobs without pulling in
// math/rand (one fault per run needs no stream).
func split64(seed int64) uint64 {
	x := uint64(seed) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// crashFrontrunner waits until warmupPoints sequence points have elapsed
// globally, then kills the first stepping agent that is (one of) the
// busiest so far.
func crashFrontrunner(seed int64, r int, _ []int) func(sim.FaultPoint) sim.FaultAction {
	h := split64(seed)
	warmup := 16 + int(h%48)
	hold := h&1 == 1
	counts := make([]int, r)
	total, done := 0, false
	return func(p sim.FaultPoint) sim.FaultAction {
		if done || p.Op != sim.FaultStep || p.Agent >= r {
			return sim.FaultAction{}
		}
		counts[p.Agent]++
		total++
		if total < warmup {
			return sim.FaultAction{}
		}
		for _, c := range counts {
			if c > counts[p.Agent] {
				return sim.FaultAction{} // someone else is further ahead
			}
		}
		done = true
		return sim.FaultAction{Crash: true, HoldLock: hold}
	}
}

// crashNodeReduce kills the agent hitting the k-th sequence point whose
// declared phase is NODE-REDUCE. Instances that never reach the phase (the
// gcd drops to 1 earlier, or the run fails before) inject nothing — an
// empty plan is a valid manifest.
func crashNodeReduce(seed int64, _ int, _ []int) func(sim.FaultPoint) sim.FaultAction {
	h := split64(seed)
	k := int(h % 24)
	hold := (h>>8)&1 == 1
	seen, done := 0, false
	return func(p sim.FaultPoint) sim.FaultAction {
		if done || p.Op != sim.FaultStep || p.Phase != telemetry.PhaseNodeReduce {
			return sim.FaultAction{}
		}
		seen++
		if seen <= k {
			return sim.FaultAction{}
		}
		done = true
		return sim.FaultAction{Crash: true, HoldLock: hold}
	}
}

// crashLockholder kills a fixed agent at a fixed (seed-chosen) early point
// of its own, always abandoning the lock.
func crashLockholder(seed int64, r int, _ []int) func(sim.FaultPoint) sim.FaultAction {
	h := split64(seed)
	victim := int(h % uint64(r))
	at := 2 + int((h>>16)%12)
	done := false
	return func(p sim.FaultPoint) sim.FaultAction {
		if done || p.Op != sim.FaultStep || p.Agent != victim || p.Index < at {
			return sim.FaultAction{}
		}
		done = true
		return sim.FaultAction{Crash: true, HoldLock: true}
	}
}

// tornHomebase tears the k-th sign write landing on any home-base
// whiteboard, keeping roughly half the tag.
func tornHomebase(seed int64, _ int, homes []int) func(sim.FaultPoint) sim.FaultAction {
	h := split64(seed)
	k := int(h % 12)
	hold := (h>>4)&1 == 1
	home := make(map[int]bool, len(homes))
	for _, n := range homes {
		home[n] = true
	}
	seen, done := 0, false
	return func(p sim.FaultPoint) sim.FaultAction {
		if done || p.Op != sim.FaultWrite || !home[p.Node] {
			return sim.FaultAction{}
		}
		seen++
		if seen <= k {
			return sim.FaultAction{}
		}
		done = true
		return sim.FaultAction{Torn: true, Keep: len(p.Tag) / 2, HoldLock: hold}
	}
}

// staleReads stalls every stride-th Wait predicate check by a small
// seed-chosen number of sequence points, capped so plans stay bounded.
func staleReads(seed int64, _ int, _ []int) func(sim.FaultPoint) sim.FaultAction {
	h := split64(seed)
	stride := 3 + int(h%5)
	stall := 1 + int((h>>8)%3)
	const capEvents = 32
	seen, injected := 0, 0
	return func(p sim.FaultPoint) sim.FaultAction {
		if p.Op != sim.FaultRead || injected >= capEvents {
			return sim.FaultAction{}
		}
		seen++
		if seen%stride != 0 {
			return sim.FaultAction{}
		}
		injected++
		return sim.FaultAction{StallReads: stall}
	}
}
