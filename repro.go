// Package repro is a from-scratch Go reproduction of
//
//	L. Barrière, P. Flocchini, P. Fraigniaud, N. Santoro,
//	"Can we elect if we cannot compare?", 15th ACM SPAA, 2003.
//
// The paper studies deterministic leader election among mobile agents on
// anonymous networks in the QUALITATIVE model: agents carry distinct but
// mutually incomparable labels ("colors"), and local edge labels are
// likewise distinct but incomparable — protocols may test equality but may
// never order labels. The repository implements:
//
//   - an asynchronous mobile-agent simulator with whiteboards in which the
//     qualitative model is enforced by the type system (internal/sim);
//   - Protocol ELECT of Section 3 — whiteboard-DFS map drawing, canonical
//     ordering of the equivalence classes of the bicolored network, and the
//     gcd reduction via AGENT-REDUCE and NODE-REDUCE (internal/elect);
//   - the effectual Cayley-graph variant of Section 4, with exact Cayley
//     recognition by regular-subgroup search (internal/group);
//   - the impossibility machinery of Section 2 — views, symmetricity,
//     label-preserving automorphisms and the Theorem 2.1 oracle
//     (internal/view, internal/labeling);
//   - the quantitative baseline and the bespoke Petersen protocol;
//   - one Protocol/Runtime contract with four backends (internal/runtime),
//     on which the paper's Figure 1 transformation and the Section 1.3
//     anonymous-agents argument run (internal/exp).
//
// This root package is a façade re-exporting the pieces a downstream user
// needs: graph construction, election runs, and solvability analysis. The
// experiment harness regenerating the paper's table and figures lives in
// internal/exp and is driven by cmd/experiments and the root benchmarks.
package repro

import (
	"time"

	"repro/internal/elect"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Graph is an anonymous undirected multigraph (see internal/graph).
type Graph = graph.Graph

// Re-exported graph generators.
var (
	Path              = graph.Path
	Cycle             = graph.Cycle
	Complete          = graph.Complete
	CompleteBipartite = graph.CompleteBipartite
	Star              = graph.Star
	Hypercube         = graph.Hypercube
	Torus             = graph.Torus
	Grid              = graph.Grid
	Circulant         = graph.Circulant
	Petersen          = graph.Petersen
	CCC               = graph.CCC
	Prism             = graph.Prism
	Wheel             = graph.Wheel
	MoebiusKantor     = graph.MoebiusKantor
	RandomConnected   = graph.RandomConnected
)

// NewGraphBuilder starts an explicit graph construction.
func NewGraphBuilder(n int) *graph.Builder { return graph.NewBuilder(n) }

// Result is the outcome of a simulated election run.
type Result = sim.Result

// Outcome and roles of individual agents.
type (
	Outcome = sim.Outcome
	Role    = sim.Role
)

// Agent roles reported by protocols.
const (
	RoleLeader     = sim.RoleLeader
	RoleDefeated   = sim.RoleDefeated
	RoleUnsolvable = sim.RoleUnsolvable
)

// RunConfig configures an election run.
type RunConfig struct {
	// Seed drives the adversary: color assignment, per-agent symbol
	// encodings, initial wake-up set and delay injection.
	Seed int64
	// MaxDelay bounds the random per-operation delay (0 = yields only).
	MaxDelay time.Duration
	// WakeAll starts every agent awake; otherwise a random nonempty subset
	// starts and MAP-DRAWING wakes the rest.
	WakeAll bool
	// Timeout aborts a stuck run (default 30s).
	Timeout time.Duration
	// UseHairOrdering selects the paper's Lemma 3.1 hair construction for
	// the class order ≺ instead of the positional order (order.Direct).
	UseHairOrdering bool
	// AllowSharedHomes permits repeated entries in the homes list — the
	// Section 1.2 extension where several agents start on one node.
	// Co-located agents are first reduced by a local whiteboard race; the
	// node weights stay visible to the class computation.
	AllowSharedHomes bool
	// Trace, when set, receives observer-side runtime events (moves, sign
	// writes, wake-ups, outcomes).
	Trace Tracer
	// Telemetry, when set, collects phase-scoped counters and protocol
	// spans for the run (see NewTelemetryRun and WriteChromeTrace). Nil
	// disables collection at zero cost.
	Telemetry *TelemetryRun
	// Scheduler, when set, replaces the free-running goroutine timing with
	// the deterministic serializing scheduler: agents execute one at a time
	// and Scheduler picks who runs at every sequence point (MaxDelay is then
	// ignored). Built-in adversarial strategies live in internal/adversary;
	// Replay reconstructs a recorded run. The execution becomes a pure
	// function of (Seed, grant sequence).
	Scheduler Strategy
	// RecordSchedule, when set, captures a scheduled run's grant sequence —
	// the compact decision log that replays the run bit-for-bit.
	RecordSchedule *Schedule
	// Faults, when set, injects deterministic faults (crash-stops, torn
	// whiteboard writes, bounded read staleness) at the simulator's sequence
	// points. Requires Scheduler — the fault plane composes with the
	// serializing turnstile so (schedule, fault plan) replays are exact.
	// Strategy-driven injectors and recordable plans live in internal/faults.
	Faults FaultInjector
	// TakeoverAfter is the number of sequence points a surviving agent burns
	// at a whiteboard abandoned by a crashed lock-holder before breaking the
	// lock and taking over (default 3; only meaningful with Faults).
	TakeoverAfter int
}

// Strategy decides which ready agent runs at each sequence point of a
// scheduled (serialized) run.
type Strategy = sim.Strategy

// Schedule is a recorded decision log: the sequence of agent indices
// granted by a scheduled run, encodable to bytes and replayable.
type Schedule = sim.Schedule

// ReplayStrategy is the strategy returned by Replay; it counts divergences
// when the log disagrees with the execution it drives.
type ReplayStrategy = sim.ReplayStrategy

// Replay returns a strategy that re-issues a recorded decision log.
func Replay(s *Schedule) *ReplayStrategy { return sim.Replay(s) }

// DecodeSchedule parses a Schedule.Encode byte stream.
var DecodeSchedule = sim.DecodeSchedule

// ErrDeadlock reports that a scheduled run wedged: no agent was ready and
// at least one was still blocked. A correct protocol never deadlocks under
// any legal schedule.
var ErrDeadlock = sim.ErrDeadlock

// ErrCrashed is the sentinel a crash-stopped agent's protocol goroutine
// unwinds with; it marks an injected fault, not a protocol failure, and is
// never promoted to a run-level error.
var ErrCrashed = sim.ErrCrashed

// FaultInjector decides, at each injection point of a scheduled run, whether
// to inject a fault (see RunConfig.Faults and internal/faults).
type FaultInjector = sim.FaultInjector

// FaultPoint names one potential injection point: the operation kind, the
// acting agent, its per-agent per-operation sequence index, the node, and
// the protocol phase.
type FaultPoint = sim.FaultPoint

// FaultAction is an injector's decision at a FaultPoint: crash (optionally
// holding the node lock), tear the in-flight write to a prefix, or stall
// the next reads.
type FaultAction = sim.FaultAction

// FaultOp classifies injection points (sequence step, sign write, board
// read).
type FaultOp = sim.FaultOp

// The fault injection-point kinds.
const (
	FaultStep  = sim.FaultStep
	FaultWrite = sim.FaultWrite
	FaultRead  = sim.FaultRead
)

// TelemetryRun collects one run's phase-scoped counters, spans and
// instants (see internal/telemetry).
type TelemetryRun = telemetry.Run

// NewTelemetryRun starts a telemetry collector for RunConfig.Telemetry.
func NewTelemetryRun() *TelemetryRun { return telemetry.NewRun() }

// WriteChromeTrace exports a collected run as Chrome trace_event JSON —
// open the file in Perfetto (ui.perfetto.dev) or chrome://tracing.
var WriteChromeTrace = telemetry.WriteChromeTrace

// Tracer receives observer-side simulation events.
type Tracer = sim.Tracer

// TraceEvent is one observer-side runtime event.
type TraceEvent = sim.Event

// Trace event kinds (see TraceEvent.Kind).
const (
	EvMove    = sim.EvMove
	EvWrite   = sim.EvWrite
	EvErase   = sim.EvErase
	EvWake    = sim.EvWake
	EvOutcome = sim.EvOutcome
	EvCrash   = sim.EvCrash
	EvRecover = sim.EvRecover
	EvTorn    = sim.EvTorn
)

func (c RunConfig) ordering() order.Ordering {
	if c.UseHairOrdering {
		return order.Hairs
	}
	return order.Direct
}

// RunElect runs Protocol ELECT (Section 3) with one agent per home-base.
// It elects a leader iff the gcd of the equivalence-class sizes of (g, p)
// is 1; otherwise every agent reports the election unsolvable.
func RunElect(g *Graph, homes []int, cfg RunConfig) (*Result, error) {
	return sim.Run(simConfig(g, homes, cfg, false),
		elect.Elect(elect.Options{Ordering: cfg.ordering()}))
}

// RunCayleyElect runs the Section 4 effectual protocol for Cayley graphs:
// agents recognize the Cayley structure from their drawn maps, report
// impossibility when a nontrivial translation preserves the home-base set,
// and otherwise elect via the ELECT reduction.
func RunCayleyElect(g *Graph, homes []int, cfg RunConfig) (*Result, error) {
	return sim.Run(simConfig(g, homes, cfg, false),
		elect.CayleyElect(elect.CayleyOptions{Ordering: cfg.ordering(), FallbackToElect: true}))
}

// RunQuantitative runs the quantitative baseline of Section 1.3: agents
// carry totally ordered integer identities and the maximum wins. It is
// universal — it succeeds on every input, including those impossible in the
// qualitative model.
func RunQuantitative(g *Graph, homes []int, cfg RunConfig) (*Result, error) {
	return sim.Run(simConfig(g, homes, cfg, true), elect.QuantitativeElect())
}

// RunPetersenAdHoc runs the bespoke Section 4 protocol electing a leader on
// the Petersen graph with two agents at adjacent home-bases — the instance
// where ELECT is not effectual (Figure 5).
func RunPetersenAdHoc(g *Graph, homes []int, cfg RunConfig) (*Result, error) {
	return sim.Run(simConfig(g, homes, cfg, false), elect.PetersenElect())
}

// RunGather runs the rendezvous protocol built on ELECT (the paper's
// footnote 2): elect a leader, then gather every agent at the leader's
// home-base. On success every agent is physically at the rendezvous node;
// if election is impossible, every agent reports unsolvable.
func RunGather(g *Graph, homes []int, cfg RunConfig) (*Result, error) {
	return sim.Run(simConfig(g, homes, cfg, false),
		elect.Gather(elect.Options{Ordering: cfg.ordering()}))
}

func simConfig(g *Graph, homes []int, cfg RunConfig, quant bool) sim.Config {
	return sim.Config{
		Graph:            g,
		Homes:            homes,
		Seed:             cfg.Seed,
		MaxDelay:         cfg.MaxDelay,
		WakeAll:          cfg.WakeAll,
		Timeout:          cfg.Timeout,
		QuantitativeIDs:  quant,
		AllowSharedHomes: cfg.AllowSharedHomes,
		Tracer:           cfg.Trace,
		Telemetry:        cfg.Telemetry,
		Scheduler:        cfg.Scheduler,
		Record:           cfg.RecordSchedule,
		Faults:           cfg.Faults,
		TakeoverAfter:    cfg.TakeoverAfter,
	}
}

// Violation is one protocol-invariant breach found by CheckInvariants.
type Violation = elect.Violation

// InvariantSpec parameterizes CheckInvariants with the oracle's verdict and
// the Theorem 3.1 move-bound constants.
type InvariantSpec = elect.InvariantSpec

// CheckInvariants validates a completed run against the protocol contract:
// at most one leader, all-agree-or-all-fail, verdict matching the gcd
// oracle, and the move bound (see internal/elect and internal/adversary).
var CheckInvariants = elect.CheckInvariants

// Analysis is the centralized solvability analysis of an input (see
// internal/elect.Analyze): ordered class sizes and gcd (Theorem 3.1),
// Cayley recognition and translation count d (Theorem 4.1), and the exact
// Theorem 2.1 symmetric-labeling check for simple graphs.
type Analysis = elect.Analysis

// Analyze computes the solvability analysis of (g, homes).
func Analyze(g *Graph, homes []int) (*Analysis, error) {
	return elect.Analyze(g, homes, order.Direct)
}
