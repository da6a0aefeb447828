package runtime

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/lazyrand"
	"repro/internal/sim"
)

// AsSimProtocol adapts a contract Protocol to the whiteboard simulator: the
// returned sim.Protocol drives one agent by stepping p inside exclusive
// whiteboard accesses. Each activation reads the board, steps the protocol,
// and lands its writes atomically (one sim access); a Move effect becomes a
// sim move through the symbol carrying that label; a park becomes a
// sim.Agent.Wait until the board's mark multiset changes.
//
// The run must set sim.Config.QuantitativeIDs (View.ID is the agent's
// integer identity). With sim.Config.PortLabels set, view labels are the
// configured edge labels — use this to align trajectories with the
// message-passing backends; without it, each agent labels ports by its own
// presentation order, which is still sound for protocols (like
// DFSElection) whose label use is private per agent.
//
// The adapter is stateless and safe to share across concurrent runs, so a
// single AsSimProtocol value can serve a whole campaign — this is how
// elect.QuantitativeElect now runs the one DFSElection implementation.
func AsSimProtocol(p Protocol) sim.Protocol {
	return asSimProtocol(p, nil)
}

// simCollector carries the raw per-agent halt strings and activation
// counts out of a sim run (the sim Outcome only keeps the role). Each
// agent writes its own slots from its own goroutine, so no locking is
// needed; the engine's run barrier publishes the slices.
type simCollector struct {
	halts []string
	steps []int64
}

func newSimCollector(n int) *simCollector {
	return &simCollector{halts: make([]string, n), steps: make([]int64, n)}
}

func (c *simCollector) totalSteps() int {
	var t int64
	for _, s := range c.steps {
		t += s
	}
	return int(t)
}

// asSimProtocol is AsSimProtocol plus the optional collector.
func asSimProtocol(p Protocol, col *simCollector) sim.Protocol {
	return func(a *sim.Agent) (sim.Outcome, error) {
		mem := p.Init(a.ID())
		entry := -1
		for {
			var eff Effect
			var labels []int
			var outcome sim.Outcome
			var halted bool
			var parkedKey string
			err := a.Access(func(b *sim.Board) {
				var v View
				v, labels = simView(a, b.Signs(), entry)
				if col != nil {
					col.steps[a.ID()-1]++
				}
				mem, eff = p.Step(mem, v)
				for _, w := range eff.Write {
					b.Write(w)
				}
				// Wake any sleeping resident so protocols stay correct under
				// sim.Config.WakeAll=false (the engine only wakes a random
				// subset; a traversing agent wakes the rest, as MAP-DRAWING
				// does).
				b.Write(sim.TagWake)
				switch {
				case eff.Halt != "":
					halted = true
					outcome = simOutcome(a, b.Signs(), eff)
				case eff.Move < 0:
					parkedKey = marksKey(b.Signs())
				}
			})
			if err != nil {
				return sim.Outcome{}, err
			}
			if halted {
				if col != nil {
					col.halts[a.ID()-1] = eff.Halt
				}
				return outcome, nil
			}
			if eff.Move >= 0 {
				sym, ok := symbolForLabel(a, labels, eff.Move)
				if !ok {
					return sim.Outcome{}, fmt.Errorf("runtime: no port labeled %d at the current node", eff.Move)
				}
				es, err := a.Move(sym)
				if err != nil {
					return sim.Outcome{}, err
				}
				entry = entryLabel(a, es)
				continue
			}
			// Parked: block until the mark multiset moves past the snapshot
			// taken inside the access (no lost wakeups — Wait re-checks its
			// predicate after every write to this board).
			if _, err := a.Wait(func(ss sim.Signs) bool { return marksKey(ss) != parkedKey }); err != nil {
				return sim.Outcome{}, err
			}
		}
	}
}

// simView builds the contract View from a sim board snapshot, returning
// the label of each symbol in the agent's presentation order alongside.
func simView(a *sim.Agent, ss sim.Signs, entry int) (View, []int) {
	syms := a.Symbols()
	labels := make([]int, len(syms))
	for i, s := range syms {
		if a.PortLabeled() {
			labels[i] = a.PortLabel(s)
		} else {
			labels[i] = i
		}
	}
	board := make([]string, 0, len(ss))
	for _, s := range ss {
		if s.Tag != sim.TagWake {
			board = append(board, s.Tag)
		}
	}
	sort.Strings(board)
	return View{
		Degree: a.Deg(),
		Labels: labels,
		Entry:  entry,
		Board:  board,
		ID:     a.ID(),
	}, labels
}

// simOutcome maps a halt effect to a sim.Outcome, resolving LeaderMark to
// the writer's color so defeated agents acknowledge the winner.
func simOutcome(a *sim.Agent, ss sim.Signs, eff Effect) sim.Outcome {
	switch eff.Halt {
	case HaltLeader:
		return sim.Outcome{Role: sim.RoleLeader, Leader: a.Color()}
	case HaltDefeated:
		out := sim.Outcome{Role: sim.RoleDefeated}
		for _, s := range ss {
			if s.Tag == eff.LeaderMark {
				out.Leader = s.Color
				break
			}
		}
		return out
	case HaltUnsolvable:
		return sim.Outcome{Role: sim.RoleUnsolvable}
	default:
		return sim.Outcome{}
	}
}

// symbolForLabel resolves a port label to the symbol to move through.
func symbolForLabel(a *sim.Agent, labels []int, label int) (sim.Symbol, bool) {
	for i, s := range a.Symbols() {
		if labels[i] == label {
			return s, true
		}
	}
	return sim.Symbol{}, false
}

// entryLabel resolves the entry symbol at the node just entered to its
// label (configured edge label, or presentation index without a labeling).
func entryLabel(a *sim.Agent, es sim.Symbol) int {
	if a.PortLabeled() {
		return a.PortLabel(es)
	}
	for i, s := range a.Symbols() {
		if s == es {
			return i
		}
	}
	return -1
}

// marksKey renders the board's mark multiset (wake marks excluded) as a
// comparable string, the park predicate of the sim adapter.
func marksKey(ss sim.Signs) string {
	marks := make([]string, 0, len(ss))
	for _, s := range ss {
		if s.Tag != sim.TagWake {
			marks = append(marks, s.Tag)
		}
	}
	sort.Strings(marks)
	return strings.Join(marks, "\x00")
}

// runSim is the shared driver of the two sim-backed backends.
func runSim(cfg Config, p Protocol, backend string, scfg sim.Config, timeout time.Duration) (*Result, error) {
	labels, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	col := newSimCollector(len(cfg.Homes))
	scfg.Graph = cfg.Graph
	scfg.Homes = cfg.Homes
	scfg.Seed = cfg.Seed
	scfg.WakeAll = true
	scfg.QuantitativeIDs = true
	scfg.AllowSharedHomes = cfg.AllowSharedHomes
	scfg.PortLabels = labels
	scfg.Timeout = timeout
	simRes, err := sim.Run(scfg, asSimProtocol(p, col))
	res := &Result{Outcomes: col.halts, Steps: col.totalSteps(), Backend: backend}
	if simRes != nil {
		res.Moves = simRes.Moves
	}
	if err != nil {
		return res, fmt.Errorf("runtime: %s backend: %w", backend, err)
	}
	return res, nil
}

// Goroutine is backend (a): the concurrent whiteboard simulator
// (internal/sim) with one goroutine per agent under the timing adversary.
// Scheduling is nondeterministic (outcome checks must be
// schedule-independent, as DFSElection's are); whiteboard semantics and
// the fault-free move counts match the other backends exactly.
type Goroutine struct {
	// Timeout bounds the run's wall clock (sim.Config.Timeout; 0 = the
	// simulator's 30s default).
	Timeout time.Duration
}

// Name returns "goroutine".
func (Goroutine) Name() string { return "goroutine" }

// Run executes the protocol on the concurrent simulator.
func (g Goroutine) Run(cfg Config, p Protocol) (*Result, error) {
	return runSim(cfg, p, g.Name(), sim.Config{}, g.Timeout)
}

// Scheduled is backend (b): the whiteboard simulator under the
// deterministic serializing scheduler. Every run is reproducible from
// (Config, Strategy); decision logs (Record) replay executions exactly,
// and the crash/torn/stale fault plane (Faults, internal/faults) injects
// deterministically at sequence points.
type Scheduled struct {
	// Strategy picks the next agent at every sequence point; nil defaults
	// to a random strategy seeded from Config.Seed. Adversary strategies
	// (internal/adversary) plug in here.
	Strategy sim.Strategy
	// Record, when set, receives the grant sequence of the run for replay
	// (sim.Config.Record).
	Record *sim.Schedule
	// Faults, when set, consults the injector at every sequence point,
	// write, and wait predicate check (sim.Config.Faults).
	Faults sim.FaultInjector
	// Timeout bounds the run's wall clock (0 = the simulator's default).
	Timeout time.Duration
}

// Name returns "scheduled".
func (*Scheduled) Name() string { return "scheduled" }

// Run executes the protocol under the serializing scheduler.
func (s *Scheduled) Run(cfg Config, p Protocol) (*Result, error) {
	strat := s.Strategy
	if strat == nil {
		rng := lazyrand.New(cfg.Seed)
		strat = sim.StrategyFunc(func(ready []int, _ int) int {
			return ready[rng.Intn(len(ready))]
		})
	}
	scfg := sim.Config{Scheduler: strat, Record: s.Record, Faults: s.Faults}
	return runSim(cfg, p, s.Name(), scfg, s.Timeout)
}
