// Package msgnet implements the paper's Figure 1: the generic transformation
// of a mobile-agent protocol into a distributed protocol for an anonymous
// processor network. "A message is an agent": each processor's memory is its
// whiteboard; upon receiving a message (P, M) the processor executes the
// agent program P with memory M against its whiteboard, and if the execution
// leads to a move through the edge labeled i, it sends (P, M') through that
// edge.
//
// The transformation is what lets Theorem 2.1 import Yamashita–Kameda's
// processor-network impossibility results into the mobile world. To make it
// executable, agent programs are modeled as serializable state machines
// (Machine): a pure step function from (memory string, local view) to (new
// memory, action). The same machine can then be run two ways:
//
//   - RunMobile: agents walk the graph carrying their memory (the mobile
//     world of the rest of this repository, in miniature);
//   - RunTransformed: processors exchange (program, memory) messages per
//     Figure 1 — the agent IS the message.
//
// Both runners draw scheduling decisions from the same seeded source, and
// the tests verify the executions produce identical outcomes — the
// executable content of the transformation's correctness.
package msgnet

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/graph"
	"repro/internal/lazyrand"
)

// View is what a machine observes when it executes at a node.
type View struct {
	// Degree of the current node.
	Degree int
	// Labels[p] is the label of port p under the network's edge-labeling.
	Labels []int
	// Entry is the label of the port the agent arrived through (-1 at the
	// home-base before any move).
	Entry int
	// Board is the sorted multiset of marks on the node's whiteboard.
	Board []string
	// ID is the agent's integer identity (the quantitative world — this
	// package exists for the Figure 1 transformation, which the paper
	// applies to arbitrary protocols; identities make demo machines easy).
	ID int
}

// Action is what a machine decides after a step.
type Action struct {
	// Write lists marks to add to the current whiteboard (before moving).
	Write []string
	// MoveLabel, when >= 0, moves the agent through the port with that
	// label. -1 means stay parked at the node; a parked agent is re-stepped
	// whenever the node's whiteboard changes.
	MoveLabel int
	// Halt, when non-empty, ends the agent with this outcome.
	Halt string
}

// Machine is a serializable agent program: a pure function of the carried
// memory and the local view. It must be deterministic.
type Machine func(memory string, v View) (newMemory string, act Action)

// Config describes a run.
type Config struct {
	G      *graph.Graph
	Labels graph.EdgeLabeling
	Homes  []int
	Seed   int64
	// MaxSteps bounds total machine steps (default 100k) — runaway guard.
	MaxSteps int
}

// Result reports the outcomes (by agent index) and step count.
type Result struct {
	Outcomes []string
	Steps    int
}

func (c *Config) validate() error {
	if c.G == nil || c.G.N() == 0 {
		return errors.New("msgnet: empty graph")
	}
	if err := c.Labels.Validate(c.G); err != nil {
		return err
	}
	if len(c.Homes) == 0 {
		return errors.New("msgnet: no agents")
	}
	for _, h := range c.Homes {
		if h < 0 || h >= c.G.N() {
			return fmt.Errorf("msgnet: home %d out of range", h)
		}
	}
	return nil
}

// agentCore is the shared execution state of one agent in either runner.
type agentCore struct {
	memory string
	node   int
	entry  int // label of entry port, -1 initially
	halted string
	// parkedSeen is the board revision the agent last observed while
	// parked; it is re-stepped only after a change.
	parkedSeen int
}

type world struct {
	cfg    Config
	boards [][]string
	rev    []int // board revision counters
	agents []*agentCore
	steps  int
	rng    *rand.Rand
}

func newWorld(cfg Config) (*world, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 100_000
	}
	w := &world{
		cfg:    cfg,
		boards: make([][]string, cfg.G.N()),
		rev:    make([]int, cfg.G.N()),
		rng:    lazyrand.New(cfg.Seed),
	}
	for i, h := range cfg.Homes {
		w.agents = append(w.agents, &agentCore{node: h, entry: -1, parkedSeen: -1})
		_ = i
	}
	return w, nil
}

func (w *world) view(a *agentCore, id int) View {
	v := View{
		Degree: w.cfg.G.Deg(a.node),
		Labels: append([]int(nil), w.cfg.Labels[a.node]...),
		Entry:  a.entry,
		Board:  append([]string(nil), w.boards[a.node]...),
		ID:     id,
	}
	sort.Strings(v.Board)
	return v
}

// stepAgent executes one machine step for agent i; reports whether the
// agent made progress (acted or halted) so schedulers can avoid busy loops.
func (w *world) stepAgent(m Machine, i int) (bool, error) {
	a := w.agents[i]
	if a.halted != "" {
		return false, nil
	}
	// A parked agent only re-steps after its board changed.
	if a.parkedSeen == w.rev[a.node] {
		return false, nil
	}
	w.steps++
	mem, act := m(a.memory, w.view(a, i+1))
	a.memory = mem
	for _, mark := range act.Write {
		w.boards[a.node] = append(w.boards[a.node], mark)
		w.rev[a.node]++
	}
	if act.Halt != "" {
		a.halted = act.Halt
		return true, nil
	}
	if act.MoveLabel >= 0 {
		moved := false
		for p, h := range w.cfg.G.Ports(a.node) {
			if w.cfg.Labels[a.node][p] == act.MoveLabel {
				a.entry = w.cfg.Labels[h.To][h.Twin]
				a.node = h.To
				a.parkedSeen = -1
				moved = true
				break
			}
		}
		if !moved {
			return false, fmt.Errorf("msgnet: agent %d: no port labeled %d", i, act.MoveLabel)
		}
		return true, nil
	}
	// Stay parked: remember the board revision we decided on.
	a.parkedSeen = w.rev[a.node]
	return true, nil
}

// run drives the world with a seeded random scheduler until every agent
// halts, nothing can make progress (deadlock), or MaxSteps is exhausted.
// Both runners share this loop — the transformation changes the MEANING of
// an activation (an agent walking vs. a message being consumed), not the
// schedule structure, which is the point of the equivalence tests.
func (w *world) run(m Machine) (*Result, error) {
	for w.steps < w.cfg.MaxSteps {
		// Collect runnable agents: not halted and not parked-on-seen-board.
		var runnable []int
		for i, a := range w.agents {
			if a.halted == "" && a.parkedSeen != w.rev[a.node] {
				runnable = append(runnable, i)
			}
		}
		if len(runnable) == 0 {
			break
		}
		i := runnable[w.rng.Intn(len(runnable))]
		if _, err := w.stepAgent(m, i); err != nil {
			return nil, err
		}
	}
	res := &Result{Steps: w.steps, Outcomes: make([]string, len(w.agents))}
	allHalted := true
	for i, a := range w.agents {
		res.Outcomes[i] = a.halted
		if a.halted == "" {
			allHalted = false
		}
	}
	if !allHalted {
		return res, errors.New("msgnet: run ended with unhalted agents (deadlock or step budget)")
	}
	return res, nil
}

// RunMobile executes the machine in the mobile world: agents physically
// walk the network carrying their memory.
func RunMobile(cfg Config, m Machine) (*Result, error) {
	w, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}
	return w.run(m)
}

// message is an agent in transit or in an inbox: "a message is an agent,
// and is of the form (P, M) where P is the program of the agent and M is
// the memory content of the agent" (Figure 1). P is the machine shared by
// all processors; agent carries the index for outcome bookkeeping only.
type message struct {
	agent  int
	memory string
	entry  int // label, at the receiving processor, of the arrival port
}

// parked is an agent whose last execution neither moved nor halted: it
// waits at the processor until the whiteboard changes.
type parked struct {
	agent   int
	memory  string
	entry   int
	seenRev int
}

// RunTransformed executes the machine through the Figure 1 transformation:
// a network of processors, each owning a whiteboard (its memory) and an
// inbox of (program, memory) messages. Processing a message means running
// the agent program against the local whiteboard; a move becomes a send, a
// stay becomes parking the message until the whiteboard changes, and the
// initial wake-up is the fictitious first delivery at the home processor
// ("the processor starts executing the program from the second instruction,
// as if it would have received a message").
//
// The scheduler picks a random busy processor each round, so schedules are
// NOT step-for-step identical to RunMobile's — the equivalence the tests
// assert is the protocol-level one the paper needs: the same machine elects
// the same leader (and produces the same outcome multiset) in both worlds.
func RunTransformed(cfg Config, m Machine) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 100_000
	}
	n := cfg.G.N()
	boards := make([][]string, n)
	rev := make([]int, n)
	inbox := make([][]message, n)
	park := make([][]parked, n)
	outcomes := make([]string, len(cfg.Homes))
	halted := 0
	rng := lazyrand.New(cfg.Seed)

	// Initial deliveries at the home processors.
	for i, h := range cfg.Homes {
		inbox[h] = append(inbox[h], message{agent: i, memory: "", entry: -1})
	}

	viewAt := func(v int, entry, id int) View {
		out := View{
			Degree: cfg.G.Deg(v),
			Labels: append([]int(nil), cfg.Labels[v]...),
			Entry:  entry,
			Board:  append([]string(nil), boards[v]...),
			ID:     id,
		}
		sort.Strings(out.Board)
		return out
	}
	// execute runs one Figure 1 activation at processor v and returns an
	// error for malformed moves.
	execute := func(v int, agent int, memory string, entry int) error {
		mem, act := m(memory, viewAt(v, entry, agent+1))
		for _, mark := range act.Write {
			boards[v] = append(boards[v], mark)
			rev[v]++
		}
		if act.Halt != "" {
			outcomes[agent] = act.Halt
			halted++
			return nil
		}
		if act.MoveLabel >= 0 {
			for p, h := range cfg.G.Ports(v) {
				if cfg.Labels[v][p] == act.MoveLabel {
					inbox[h.To] = append(inbox[h.To], message{
						agent:  agent,
						memory: mem,
						entry:  cfg.Labels[h.To][h.Twin],
					})
					return nil
				}
			}
			return fmt.Errorf("msgnet: no port labeled %d at processor %d", act.MoveLabel, v)
		}
		park[v] = append(park[v], parked{agent: agent, memory: mem, entry: entry, seenRev: rev[v]})
		return nil
	}

	steps := 0
	for steps < cfg.MaxSteps && halted < len(cfg.Homes) {
		// Busy processors: nonempty inbox, or a parked agent whose board
		// has changed since it parked.
		var busy []int
		for v := 0; v < n; v++ {
			if len(inbox[v]) > 0 {
				busy = append(busy, v)
				continue
			}
			for _, pk := range park[v] {
				if pk.seenRev != rev[v] {
					busy = append(busy, v)
					break
				}
			}
		}
		if len(busy) == 0 {
			break
		}
		v := busy[rng.Intn(len(busy))]
		steps++
		if len(inbox[v]) > 0 {
			// FIFO delivery.
			msg := inbox[v][0]
			inbox[v] = inbox[v][1:]
			if err := execute(v, msg.agent, msg.memory, msg.entry); err != nil {
				return nil, err
			}
			continue
		}
		// Re-step the first re-steppable parked agent.
		for idx, pk := range park[v] {
			if pk.seenRev != rev[v] {
				park[v] = append(park[v][:idx], park[v][idx+1:]...)
				if err := execute(v, pk.agent, pk.memory, pk.entry); err != nil {
					return nil, err
				}
				break
			}
		}
	}
	res := &Result{Steps: steps, Outcomes: outcomes}
	if halted < len(cfg.Homes) {
		return res, errors.New("msgnet: transformed run ended with unhalted agents")
	}
	return res, nil
}
