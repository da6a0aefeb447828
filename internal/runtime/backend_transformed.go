package runtime

import (
	"errors"

	"repro/internal/lazyrand"
)

// Transformed is backend (c): the paper's Figure 1 transformation executed
// in process. "A message is an agent": each node is a processor owning a
// whiteboard and an inbox of (program, memory) messages; processing a
// message runs one protocol step against the local whiteboard, a Move
// becomes a send through the labeled port, a park waits for the whiteboard
// to change, and the initial wake-up is a fictitious first delivery at the
// home processor. Scheduling is a seeded random choice among busy
// processors, so runs are deterministic per (Config, Protocol).
type Transformed struct{}

// Name returns "transformed".
func (Transformed) Name() string { return "transformed" }

// netMsg is an agent riding a message: its index, carried memory, and the
// label (at the receiving processor) of the arrival port.
type netMsg struct {
	agent  int
	memory string
	entry  int
}

// parkedMsg is an agent whose last activation neither moved nor halted: it
// waits at the processor until the whiteboard revision moves past seenRev.
type parkedMsg struct {
	netMsg
	seenRev int
}

// Run executes the protocol through the Figure 1 transformation.
func (tr Transformed) Run(cfg Config, p Protocol) (*Result, error) {
	labels, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	n := cfg.Graph.N()
	boards := make([]boardSet, n)
	rev := make([]int, n)
	inbox := make([][]netMsg, n)
	park := make([][]parkedMsg, n)
	res := &Result{
		Outcomes: make([]string, len(cfg.Homes)),
		Moves:    make([]int64, len(cfg.Homes)),
		Backend:  tr.Name(),
	}
	halted := 0
	rng := lazyrand.New(cfg.Seed)

	// Engine pre-marks and initial deliveries at the home processors.
	for i, h := range cfg.Homes {
		boards[h].write(i, TagHome)
		inbox[h] = append(inbox[h], netMsg{agent: i, memory: p.Init(i + 1), entry: -1})
	}

	// execute runs one Figure 1 activation at processor v.
	execute := func(v int, m netMsg) error {
		mem, eff := p.Step(m.memory, View{
			Degree: cfg.Graph.Deg(v),
			Labels: append([]int(nil), labels[v]...),
			Entry:  m.entry,
			Board:  boards[v].view(),
			ID:     m.agent + 1,
		})
		for _, w := range eff.Write {
			if boards[v].write(m.agent, w) {
				rev[v]++
			}
		}
		if eff.Halt != "" {
			res.Outcomes[m.agent] = eff.Halt
			halted++
			return nil
		}
		if eff.Move >= 0 {
			for port, h := range cfg.Graph.Ports(v) {
				if labels[v][port] == eff.Move {
					res.Moves[m.agent]++
					inbox[h.To] = append(inbox[h.To], netMsg{
						agent:  m.agent,
						memory: mem,
						entry:  labels[h.To][h.Twin],
					})
					return nil
				}
			}
			return errors.New("runtime: transformed: move through unknown label")
		}
		park[v] = append(park[v], parkedMsg{netMsg: netMsg{agent: m.agent, memory: mem, entry: m.entry}, seenRev: rev[v]})
		return nil
	}

	for res.Steps < cfg.MaxSteps && halted < len(cfg.Homes) {
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
		res.Steps++
		if len(inbox[v]) > 0 {
			// FIFO delivery.
			msg := inbox[v][0]
			inbox[v] = inbox[v][1:]
			if err := execute(v, msg); err != nil {
				return res, err
			}
			continue
		}
		// Re-step the first re-steppable parked agent.
		for idx, pk := range park[v] {
			if pk.seenRev != rev[v] {
				park[v] = append(park[v][:idx], park[v][idx+1:]...)
				if err := execute(v, pk.netMsg); err != nil {
					return res, err
				}
				break
			}
		}
	}
	if halted < len(cfg.Homes) {
		return res, errors.New("runtime: transformed run ended with unhalted agents (deadlock or step budget)")
	}
	return res, nil
}
