package exp

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/adversary"
	"repro/internal/graph"
	"repro/internal/runtime"
)

// pebbleWalk is a deterministic protocol that genuinely tries to elect
// without identities: drop a pebble at home, walk clockwise (port label 1),
// and declare leader on the first pebble seen. Alone on C3 the pebble it
// meets is its own; on C6 with an antipodal twin it is the twin's. It never
// reads View.ID.
type pebbleWalk struct{}

// Spec names the walk. It is not registered, so it runs only on the
// in-process backends.
func (pebbleWalk) Spec() string { return "pebble-walk" }

func (pebbleWalk) Init(int) string { return "" }

func (pebbleWalk) Step(memory string, v runtime.View) (string, runtime.Effect) {
	if memory == "" {
		return "walk", runtime.Effect{Write: []string{"pebble"}, Move: 1}
	}
	if slices.Contains(v.Board, "pebble") {
		return "done", runtime.Effect{Halt: runtime.HaltLeader, Move: -1}
	}
	return "walk", runtime.Effect{Move: 1}
}

// anonymous runs a protocol with identities withheld — it sees Init(0) and
// View.ID = 0 — and records each agent's local trace: the view it stepped
// on (label set, entry label, board, memory) and what it decided. The
// backend's identity only selects the trace slot. Each agent appends to its
// own slot from its own goroutine; the backend's run barrier publishes them.
type anonymous struct {
	runtime.Protocol
	traces [][]string
}

func (a *anonymous) Init(int) string { return a.Protocol.Init(0) }

func (a *anonymous) Step(memory string, v runtime.View) (string, runtime.Effect) {
	agent := v.ID - 1
	v.ID = 0
	mem, eff := a.Protocol.Step(memory, v)
	// Ports are known only by their labels, so the trace shows the label
	// set, not the port order of the graph's representation.
	labels := slices.Clone(v.Labels)
	slices.Sort(labels)
	a.traces[agent] = append(a.traces[agent], fmt.Sprintf("%q l=%v e=%d b=%v -> %q w=%v mv=%d halt=%q",
		memory, labels, v.Entry, v.Board, mem, eff.Write, eff.Move, eff.Halt))
	return mem, eff
}

// anonRun is one lockstep run: each agent's halt outcome and local trace.
type anonRun struct {
	outcomes []string
	traces   [][]string
}

// runLockstep runs the pebble walk anonymously on the oriented C_n on the
// scheduled backend under adversary.Lockstep, which keeps every agent at
// the same number of steps. One schedule suffices for the Section 1.3
// argument: an effectual protocol must be correct under every schedule the
// adversary picks, so a single schedule that makes it double-elect refutes
// it.
func runLockstep(n int, homes []int) (anonRun, error) {
	p := &anonymous{Protocol: pebbleWalk{}, traces: make([][]string, len(homes))}
	rt := &runtime.Scheduled{Strategy: adversary.Lockstep()}
	res, err := rt.Run(runtime.Config{Graph: graph.Cycle(n), Labels: graph.OrientedCycleLabeling(n), Homes: homes}, p)
	if err != nil {
		return anonRun{}, fmt.Errorf("exp: lockstep C%d: %w", n, err)
	}
	return anonRun{outcomes: res.Outcomes, traces: p.traces}, nil
}

// lockstepPair runs the Section 1.3 pair: one agent on C3 and two antipodal
// agents on C6.
func lockstepPair() (c3, c6 anonRun, err error) {
	if c3, err = runLockstep(3, []int{0}); err != nil {
		return anonRun{}, anonRun{}, err
	}
	c6, err = runLockstep(6, []int{0, 3})
	return c3, c6, err
}

// checkContradiction requires the Section 1.3 contradiction: the lone C3
// agent is elected, and each C6 agent replays its trace step for step and
// is elected too.
func checkContradiction(c3, c6 anonRun) error {
	if c3.outcomes[0] != runtime.HaltLeader {
		return fmt.Errorf("exp: the lone C3 agent halted %q, not leader", c3.outcomes[0])
	}
	for i, trace := range c6.traces {
		if !slices.Equal(trace, c3.traces[0]) {
			return fmt.Errorf("exp: C6 agent %d's trace differs from the C3 agent's", i)
		}
		if c6.outcomes[i] != runtime.HaltLeader {
			return fmt.Errorf("exp: C6 agent %d halted %q, not leader", i, c6.outcomes[i])
		}
	}
	return nil
}

// RunAnonymousExperiment regenerates the Section 1.3 impossibility argument
// (E7): the pebble walk, run with identities withheld in lockstep on (C3,
// one agent) and on (C6, two antipodal agents) under the oriented labeling.
// The three local traces coincide step for step, so the protocol elects a
// unique leader on C3 and two "leaders" on C6 — no effectual anonymous
// protocol exists.
func RunAnonymousExperiment() (string, error) {
	c3, c6, err := lockstepPair()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Section 1.3 — anonymous agents cannot be elected effectually\n")
	fmt.Fprintf(&b, "protocol: drop a pebble at home, walk clockwise, declare leader on the first pebble seen\n")
	fmt.Fprintf(&b, "run: scheduled backend, lockstep strategy, identities withheld\n\n")
	var rows [][]string
	names := []string{"C3 agent", "C6 agent A", "C6 agent B"}
	for k, trace := range [][]string{c3.traces[0], c6.traces[0], c6.traces[1]} {
		for i, step := range trace {
			rows = append(rows, []string{names[k], fmt.Sprint(i), step})
		}
	}
	b.WriteString(Table([]string{"agent", "step", "local trace: memory, labels, entry, board -> memory, writes, move, halt"}, rows))
	fmt.Fprintf(&b, "\nC3 outcome: %q; C6 outcomes: %q, %q\n", c3.outcomes[0], c6.outcomes[0], c6.outcomes[1])
	if err := checkContradiction(c3, c6); err != nil {
		return b.String(), err
	}
	fmt.Fprintf(&b, "C3 and both C6 traces identical, both C6 agents declare leader: the contradiction\n")
	return b.String(), nil
}
