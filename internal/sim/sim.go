// Package sim is the mobile-agent runtime of the reproduction: an
// asynchronous simulator for agents moving on an anonymous port-labeled
// network and communicating through node whiteboards, as defined in
// Section 1.2 of the paper.
//
// Model enforcement. The qualitative model is enforced by the type system:
//
//   - Color is an opaque handle exposing only Equal. Protocol code cannot
//     order two colors; the engine additionally assigns the underlying
//     identities from a seed-shuffled palette, so code that smuggled an
//     ordering out of them would be flushed out by multi-seed tests.
//   - Symbol (a port symbol) is likewise opaque and only comparable for
//     equality; each agent sees the symbols of a node in its own
//     seed-shuffled presentation order, modelling "each agent produces its
//     own encoding of the symbols".
//   - Nodes are anonymous: an agent can observe only its current node's
//     degree, port symbols, entry symbol, and whiteboard.
//
// Concurrency. One goroutine per agent; each whiteboard is a mutex-protected
// sign set with a condition variable so agents can block until a predicate
// over the signs holds ("waiting for the arrival of another agent"). Every
// move and whiteboard access passes a scheduler hook that injects seeded
// random delays — the paper's adversary that makes every action take "a
// finite but otherwise unpredictable amount of time". Moves and accesses are
// counted per agent to validate the O(r·|E|) bound of Theorem 3.1. A run
// in which every live agent is blocked in Wait can never progress, so it
// ends at once with ErrDeadlock; only a run that keeps acting without
// finishing waits for the Timeout watchdog.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/lazyrand"
	"repro/internal/telemetry"
)

// Color is an agent color: distinct, but mutually incomparable. The zero
// Color is invalid.
type Color struct {
	id int // 1-based palette index, seed-shuffled; never exposed
}

// Equal is the only operation the qualitative model permits on colors.
func (c Color) Equal(d Color) bool { return c.id == d.id }

// IsZero reports whether c is the invalid zero Color.
func (c Color) IsZero() bool { return c.id == 0 }

// ColorPalette mints n distinct colors for observer-side tooling — checker
// tests fabricating Results, trace analyzers — which legitimately handle
// colors outside a run. Protocol code must never call it: agents only ever
// see the colors the engine dealt, and those stay incomparable.
func ColorPalette(n int) []Color {
	out := make([]Color, n)
	for i := range out {
		out[i] = Color{id: i + 1}
	}
	return out
}

// String renders an arbitrary stable name for diagnostics. The name carries
// no protocol-usable order (it reflects the seed-shuffled internal id).
func (c Color) String() string { return fmt.Sprintf("color#%d", c.id) }

// Symbol is a port symbol at some node: distinct from the other symbols of
// that node, recognizable on revisits, but incomparable. The zero Symbol is
// invalid. Symbols are valid map keys.
type Symbol struct {
	node int
	port int
	ok   bool
}

// IsZero reports whether s is the invalid zero Symbol.
func (s Symbol) IsZero() bool { return !s.ok }

// Sign is a colored sign on a whiteboard: a tag written by an agent of some
// color (Section 1.2: "an agent can write on the whiteboards signs colored
// by its own color").
type Sign struct {
	Color Color
	Tag   string
}

// Signs is a snapshot of a whiteboard's contents.
type Signs []Sign

// Has reports whether any sign carries the tag.
func (ss Signs) Has(tag string) bool {
	for _, s := range ss {
		if s.Tag == tag {
			return true
		}
	}
	return false
}

// HasBy reports whether a sign with the tag was written by the color.
func (ss Signs) HasBy(c Color, tag string) bool {
	for _, s := range ss {
		if s.Tag == tag && s.Color.Equal(c) {
			return true
		}
	}
	return false
}

// CountColors returns the number of distinct colors having written the tag.
func (ss Signs) CountColors(tag string) int {
	return len(ss.Colors(tag))
}

// Colors returns the distinct colors having written the tag (in an
// unspecified order — colors are incomparable).
func (ss Signs) Colors(tag string) []Color {
	var out []Color
	for _, s := range ss {
		if s.Tag != tag {
			continue
		}
		dup := false
		for _, c := range out {
			if c.Equal(s.Color) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, s.Color)
		}
	}
	return out
}

// WithPrefix returns the signs whose tag starts with the prefix.
func (ss Signs) WithPrefix(prefix string) Signs {
	var out Signs
	for _, s := range ss {
		if len(s.Tag) >= len(prefix) && s.Tag[:len(prefix)] == prefix {
			out = append(out, s)
		}
	}
	return out
}

// Board is the mutable view of a whiteboard held during an exclusive access
// (the paper's "fair mutual exclusion mechanism"). It must only be used
// inside the Access callback that provided it.
type Board struct {
	wb    *whiteboard
	color Color
	// trace context (nil-safe): set by Agent.Access.
	agent *Agent
	node  int
}

// Signs returns the current signs (a copy safe to retain).
func (b *Board) Signs() Signs {
	out := make(Signs, len(b.wb.signs))
	copy(out, b.wb.signs)
	return out
}

// Write adds the sign (caller's color, tag). Duplicate (color, tag) pairs
// are idempotent. Under fault injection the write may be torn: only a proper
// prefix of the tag lands and the writer is crash-stopped when its access
// ends (so a torn sign is only ever the work of a dead agent).
func (b *Board) Write(tag string) {
	a := b.agent
	if a != nil && a.crashPending {
		return // the writer already died mid-access; nothing more lands
	}
	wtag := tag
	if a != nil && a.eng.faultsOn() {
		if act := a.eng.injectAt(a, FaultWrite, b.node, tag); act.Torn {
			keep := act.Keep
			if keep > len(tag)-1 {
				keep = len(tag) - 1
			}
			if keep < 0 {
				keep = 0
			}
			a.crashPending, a.crashHold = true, act.HoldLock
			a.eng.trace(a.index, EvTorn, b.node, tag[:keep])
			if keep == 0 {
				return // the write was lost entirely
			}
			wtag = tag[:keep]
		}
	}
	for _, s := range b.wb.signs {
		if s.Tag == wtag && s.Color.Equal(b.color) {
			return
		}
	}
	b.wb.signs = append(b.wb.signs, Sign{Color: b.color, Tag: wtag})
	b.wb.dirty = true
	if a != nil {
		a.eng.cfg.Telemetry.CountWrite(a.phase)
		a.eng.trace(a.index, EvWrite, b.node, wtag)
	}
}

// Erase removes the caller's sign with the tag, if present.
func (b *Board) Erase(tag string) {
	if b.agent != nil && b.agent.crashPending {
		return
	}
	for i, s := range b.wb.signs {
		if s.Tag == tag && s.Color.Equal(b.color) {
			b.wb.signs = append(b.wb.signs[:i], b.wb.signs[i+1:]...)
			b.wb.dirty = true
			if b.agent != nil {
				b.agent.eng.cfg.Telemetry.CountErase(b.agent.phase)
				b.agent.eng.trace(b.agent.index, EvErase, b.node, tag)
			}
			return
		}
	}
}

type whiteboard struct {
	mu    sync.Mutex
	cond  *sync.Cond
	signs []Sign
	dirty bool // set by writes, used to broadcast waiters
	// abandoned marks the lock as held by a crashed agent; stallLeft is the
	// remaining sequence-point budget before a survivor breaks it. Both are
	// only touched when fault injection is on.
	abandoned bool
	stallLeft int
	// parked counts the free-running agents blocked in Wait on this board
	// that no broadcast has readied yet (see engine.park).
	parked int
}

func newWhiteboard() *whiteboard {
	wb := &whiteboard{}
	wb.cond = sync.NewCond(&wb.mu)
	return wb
}

// ErrAborted is returned from agent operations after the engine deadline
// fires or the run is cancelled.
var ErrAborted = errors.New("sim: run aborted (deadline reached)")

// ErrCanceled is returned by Run when Config.Context is cancelled before
// the protocol completes. It deliberately does not wrap ErrAborted: the
// watchdog path (ErrAborted) is retriable under a fresh seed, an external
// cancellation is not.
var ErrCanceled = errors.New("sim: run canceled")

// Role is an agent's final protocol status.
type Role int

const (
	// RoleUnknown means the protocol ended without declaring a status.
	RoleUnknown Role = iota
	// RoleLeader marks the elected agent.
	RoleLeader
	// RoleDefeated marks an agent that accepted another agent as leader.
	RoleDefeated
	// RoleUnsolvable marks an agent that detected that election is
	// impossible for this input (the protocol is effectual, not universal).
	RoleUnsolvable
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleLeader:
		return "leader"
	case RoleDefeated:
		return "defeated"
	case RoleUnsolvable:
		return "unsolvable"
	default:
		return "unknown"
	}
}

// Outcome is what a protocol reports for one agent.
type Outcome struct {
	Role Role
	// Leader is the color of the elected leader, when Role is RoleLeader
	// or RoleDefeated.
	Leader Color
}

// Protocol is the code run by every agent (all agents execute the same
// protocol — Section 1.2).
type Protocol func(a *Agent) (Outcome, error)

// Config describes one simulation run.
type Config struct {
	Graph *graph.Graph
	// Homes lists the home-base node of each agent (distinct nodes).
	Homes []int
	// Seed drives color assignment, symbol presentation shuffles, the
	// initial wake-up choice and the delay injection.
	Seed int64
	// MaxDelay bounds the random delay injected before each agent
	// operation; 0 injects only scheduling yields.
	MaxDelay time.Duration
	// WakeAll wakes every agent at start; otherwise a random nonempty
	// subset is woken and the rest sleep until a visiting agent wakes them
	// (or until the protocol ends — protocols must wake sleepers they rely
	// on, as MAP-DRAWING does).
	WakeAll bool
	// Timeout aborts the run (default 30s).
	Timeout time.Duration
	// Context, when set, cancels the run externally: cancellation unwinds
	// every agent through the abort machinery (exactly like the watchdog)
	// and Run returns an error wrapping ErrCanceled. Nil means the run can
	// only end by completing or hitting Timeout. Server request deadlines
	// and SIGTERM drains ride on this.
	Context context.Context
	// QuantitativeIDs, when set, lets agents call Agent.ID to obtain a
	// totally ordered integer identity — the quantitative model used by
	// the baseline protocol of Section 1.3. Qualitative protocols must
	// not use it.
	QuantitativeIDs bool
	// AllowSharedHomes permits several agents to start on one node — the
	// extension the paper claims in Section 1.2 ("all our results extend
	// to the case where more than one agent can occupy a single node").
	// Off by default so accidental duplicates in configurations fail fast.
	AllowSharedHomes bool
	// Tracer, when set, receives observer-side events (moves, sign writes,
	// wake-ups, outcomes). See trace.go.
	Tracer Tracer
	// Telemetry, when set, receives per-phase move/access/write/erase
	// counts and protocol spans (see Agent.SetPhase and Agent.Span). Nil
	// disables collection; the instrumented hot path then costs one nil
	// check per event and allocates nothing (guarded by an allocation
	// test).
	Telemetry *telemetry.Run
	// Scheduler, when set, replaces the timing adversary (random delays,
	// goroutine interleaving) with a deterministic serializing scheduler:
	// agents step one at a time and the strategy picks who goes next at
	// every sequence point. MaxDelay is ignored in this mode. See Strategy.
	Scheduler Strategy
	// Record, when set together with Scheduler, receives the grant sequence
	// of the run — a decision log that Replay can re-issue to reproduce the
	// execution exactly.
	Record *Schedule
	// Faults, when set (requires Scheduler), consults the injector at every
	// sequence point, whiteboard sign write, and Wait predicate check —
	// enabling deterministic crash-stop, torn-write, and read-staleness
	// injection. See FaultInjector and the internal/faults package.
	Faults FaultInjector
	// TakeoverAfter is the stall budget of an abandoned whiteboard lock:
	// how many sequence points surviving agents collectively burn against a
	// dead agent's lock before breaking it and taking over (default 3).
	// Only meaningful together with Faults.
	TakeoverAfter int
	// ColorSeed, when nonzero, re-seeds only the color-palette shuffle,
	// leaving every other seed-derived choice (wake set, presentation
	// orders, per-agent RNGs) exactly as under Seed. It is the seam the
	// relabeling-invariance property tests twist: a correct qualitative
	// protocol cannot observe the difference.
	ColorSeed int64
	// SymbolSeed, when nonzero, re-seeds only the per-(agent, node) port
	// symbol presentation shuffles, leaving everything else as under Seed.
	SymbolSeed int64
	// PortLabels, when set, attaches an edge labeling to the run and lets
	// agents resolve any port symbol to its integer label via
	// Agent.PortLabel. This is the quantitative-world seam the
	// internal/runtime backends use to align the sim's opaque symbols with
	// the labeled ports of the message-passing backends; qualitative
	// protocols must leave it unset (labels are a total order on ports,
	// which the qualitative model forbids).
	PortLabels graph.EdgeLabeling
}

// TagHome marks home-bases: the engine writes this sign, colored by the
// resident agent, on every home whiteboard before the run starts
// ("the home-base of a is marked with a sign of color c(a)").
const TagHome = "home"

// TagWake wakes a sleeping agent when written on its home whiteboard.
const TagWake = "wake"

// Agent is the handle protocol code uses to act on the network. Methods are
// only valid from the protocol goroutine the agent was handed to.
type Agent struct {
	eng   *engine
	index int // agent index (engine-internal)
	color Color
	node  int    // current node (engine-internal; never exposed)
	entry Symbol // symbol of the port we arrived through (zero at home)
	// rng is the agent's private PRNG, built from rngSeed on first use (see
	// Rand): runs without MaxDelay never draw from it.
	rng     *rand.Rand
	rngSeed int64

	moves    int64
	accesses int64

	// phase is the protocol phase the agent last declared via SetPhase.
	// Written and read only from the agent's own goroutine (trace and the
	// telemetry counters run on it too), so no synchronization is needed.
	phase telemetry.Phase
	// board is scratch space reused across Access calls so granting a
	// whiteboard access does not allocate (Board is invalid outside the
	// Access callback, so reuse is safe).
	board Board

	// fseq counts past injection points per operation class (see
	// FaultPoint.Index); crashPending/crashHold carry a torn write's
	// crash-during-write decision from Board.Write to the end of the
	// enclosing Access. All are agent-goroutine-local.
	fseq         [numFaultOps]int
	crashPending bool
	crashHold    bool

	id int // quantitative identity, only via ID()
}

// SetPhase declares the protocol phase the agent is entering. Subsequent
// trace events and telemetry counts are attributed to it. Calling it with
// telemetry disabled is free; protocols that never call it report
// everything under PhaseNone.
func (a *Agent) SetPhase(p telemetry.Phase) { a.phase = p }

// Phase returns the agent's currently declared protocol phase.
func (a *Agent) Phase() telemetry.Phase { return a.phase }

// TelemetryEnabled reports whether the run collects telemetry. Protocol
// code can gate span-name formatting behind it so the disabled path
// stays allocation-free.
func (a *Agent) TelemetryEnabled() bool { return a.eng.cfg.Telemetry != nil }

// Span opens a telemetry span on this agent's track, tagged with the
// current phase. The returned span is a no-op when telemetry is
// disabled; call End when the interval completes.
func (a *Agent) Span(name string) telemetry.ActiveSpan {
	return a.eng.cfg.Telemetry.StartSpan(a.index, name, a.phase)
}

// Color returns the agent's own color.
func (a *Agent) Color() Color { return a.color }

// ID returns the agent's totally ordered integer identity. It panics unless
// the run was configured with QuantitativeIDs — calling it from a
// qualitative protocol is a model violation.
func (a *Agent) ID() int {
	if !a.eng.cfg.QuantitativeIDs {
		panic("sim: Agent.ID called in the qualitative model")
	}
	return a.id
}

// Deg returns the degree of the current node.
func (a *Agent) Deg() int { return a.eng.cfg.Graph.Deg(a.node) }

// PortLabeled reports whether the run carries an edge labeling
// (Config.PortLabels), i.e. whether PortLabel may be called.
func (a *Agent) PortLabeled() bool { return a.eng.cfg.PortLabels != nil }

// PortLabel resolves a port symbol to its integer edge label under the
// run's Config.PortLabels. It panics when the run carries no labeling or
// when s is the zero Symbol — calling it from a qualitative protocol is a
// model violation, exactly like Agent.ID.
func (a *Agent) PortLabel(s Symbol) int {
	if !a.PortLabeled() {
		panic("sim: Agent.PortLabel called without Config.PortLabels")
	}
	if !s.ok {
		panic("sim: Agent.PortLabel called with the zero Symbol")
	}
	return a.eng.cfg.PortLabels[s.node][s.port]
}

// Symbols returns the port symbols of the current node, in this agent's own
// presentation order (stable per agent and node across visits, but different
// agents see different orders — "its own encoding of the symbols").
func (a *Agent) Symbols() []Symbol {
	d := a.eng.cfg.Graph.Deg(a.node)
	perm := a.eng.presentation(a.index, a.node, d)
	out := make([]Symbol, d)
	for i, p := range perm {
		out[i] = Symbol{node: a.node, port: p, ok: true}
	}
	return out
}

// Entry returns the symbol of the port through which the agent entered the
// current node (zero at its home-base before any move).
func (a *Agent) Entry() Symbol { return a.entry }

// Move traverses the port with the given symbol (which must be a symbol of
// the current node) and returns the entry symbol at the destination.
func (a *Agent) Move(s Symbol) (Symbol, error) {
	if err := a.eng.delay(a); err != nil {
		return Symbol{}, err
	}
	if s.node != a.node || !s.ok {
		return Symbol{}, fmt.Errorf("sim: symbol is not a port of the current node")
	}
	h := a.eng.cfg.Graph.Port(a.node, s.port)
	a.node = h.To
	a.entry = Symbol{node: h.To, port: h.Twin, ok: true}
	atomic.AddInt64(&a.moves, 1)
	a.eng.cfg.Telemetry.CountMove(a.phase)
	a.eng.trace(a.index, EvMove, a.node, "")
	return a.entry, nil
}

// Access grants exclusive access to the current node's whiteboard for the
// duration of f (the model's mutual-exclusion whiteboard access). The Board
// is invalid outside f.
func (a *Agent) Access(f func(b *Board)) error {
	if err := a.eng.delay(a); err != nil {
		return err
	}
	wb := a.eng.boards[a.node]
	if err := a.eng.passAbandoned(a, wb); err != nil {
		return err
	}
	wb.mu.Lock()
	defer wb.mu.Unlock()
	atomic.AddInt64(&a.accesses, 1)
	a.eng.cfg.Telemetry.CountAccess(a.phase)
	a.board = Board{wb: wb, color: a.color, agent: a, node: a.node}
	f(&a.board)
	a.board = Board{} // a retained *Board fails fast instead of racing
	var crashErr error
	if a.crashPending {
		// A torn write inside f crash-stops the writer as its access ends;
		// with HoldLock the board's lock is left abandoned for survivors to
		// break (see passAbandoned).
		a.crashPending = false
		a.eng.crashed[a.index] = true
		if a.crashHold {
			a.crashHold = false
			a.eng.abandonLocked(wb)
		}
		a.eng.trace(a.index, EvCrash, a.node, "torn-write")
		crashErr = ErrCrashed
	}
	if wb.dirty {
		wb.dirty = false
		wb.cond.Broadcast()
		if wb.parked > 0 {
			a.eng.park(-wb.parked, 0)
			wb.parked = 0
		}
		if a.eng.ts != nil {
			// Ready the agents parked on this board while the writer still
			// holds its turn, so the next scheduling decision already sees
			// them (keeps the ready set — and thus replay — deterministic).
			a.eng.ts.notifyBoard(a.node)
		}
	}
	return crashErr
}

// Wait blocks until the current node's whiteboard satisfies pred (checked
// under the board lock, re-checked after every write to this board). The
// agent must stay at the node; returning signs are a snapshot.
func (a *Agent) Wait(pred func(Signs) bool) (Signs, error) {
	if err := a.eng.delay(a); err != nil {
		return nil, err
	}
	wb := a.eng.boards[a.node]
	if ts := a.eng.ts; ts != nil {
		// Turnstile mode: the agent holds the turn here, so the board cannot
		// change between the predicate check and block — no lost wakeups.
		// Blocking hands the turn back; a write readies the agent, and it
		// re-checks once the strategy grants it again.
		atomic.AddInt64(&a.accesses, 1)
		a.eng.cfg.Telemetry.CountAccess(a.phase)
		for {
			// Each predicate check is a read injection point: the injector
			// may crash the agent here or stall its view of the board for a
			// bounded number of extra sequence points.
			if err := a.eng.faultRead(a); err != nil {
				return nil, err
			}
			if err := a.eng.passAbandoned(a, wb); err != nil {
				return nil, err
			}
			wb.mu.Lock()
			snapshot := make(Signs, len(wb.signs))
			copy(snapshot, wb.signs)
			wb.mu.Unlock()
			if pred(snapshot) {
				return snapshot, nil
			}
			if err := ts.block(a.index, a.node); err != nil {
				return nil, err
			}
		}
	}
	wb.mu.Lock()
	defer wb.mu.Unlock()
	atomic.AddInt64(&a.accesses, 1)
	a.eng.cfg.Telemetry.CountAccess(a.phase)
	for {
		snapshot := make(Signs, len(wb.signs))
		copy(snapshot, wb.signs)
		if pred(snapshot) {
			return snapshot, nil
		}
		if atomic.LoadInt32(&a.eng.aborted) != 0 {
			return nil, ErrAborted
		}
		wb.parked++
		a.eng.park(1, 0)
		wb.cond.Wait()
	}
}

// Moves returns the number of moves the agent has performed so far.
func (a *Agent) Moves() int64 { return atomic.LoadInt64(&a.moves) }

// Accesses returns the number of whiteboard accesses so far.
func (a *Agent) Accesses() int64 { return atomic.LoadInt64(&a.accesses) }

// Rand returns the agent's private PRNG (for tie-breaking inside protocol
// implementations that allow randomized exploration order; the protocols in
// this repository are deterministic and do not use it, but examples may).
func (a *Agent) Rand() *rand.Rand {
	if a.rng == nil {
		a.rng = lazyrand.New(a.rngSeed)
	}
	return a.rng
}

// Result collects the outcome of a run.
type Result struct {
	// Outcomes[i] is agent i's reported outcome (order matches cfg.Homes).
	Outcomes []Outcome
	// Errors[i] is agent i's protocol error, if any.
	Errors []error
	// Moves and Accesses are per-agent counters.
	Moves    []int64
	Accesses []int64
	// Colors[i] is agent i's color (for test-side bookkeeping; tests may
	// map colors back to indices, protocols may not).
	Colors []Color
	// Crashed[i] reports whether agent i was crash-stopped by an injected
	// fault (its error is ErrCrashed). Nil on fault-free runs fabricated by
	// tests; all-false on fault-free engine runs.
	Crashed []bool
	// Takeovers counts abandoned-lock recoveries performed by surviving
	// agents (see Config.TakeoverAfter).
	Takeovers int64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// TotalMoves sums the per-agent move counters.
func (r *Result) TotalMoves() int64 {
	var t int64
	for _, m := range r.Moves {
		t += m
	}
	return t
}

// TotalAccesses sums the per-agent whiteboard-access counters.
func (r *Result) TotalAccesses() int64 {
	var t int64
	for _, m := range r.Accesses {
		t += m
	}
	return t
}

// LeaderCount returns how many agents ended in RoleLeader.
func (r *Result) LeaderCount() int {
	n := 0
	for _, o := range r.Outcomes {
		if o.Role == RoleLeader {
			n++
		}
	}
	return n
}

// AgreedLeader reports whether exactly one agent is leader, all others are
// defeated, and all agree on the leader's color.
func (r *Result) AgreedLeader() bool {
	var leader Color
	count := 0
	for i, o := range r.Outcomes {
		if o.Role == RoleLeader {
			count++
			leader = r.Colors[i]
			if !o.Leader.Equal(leader) {
				return false
			}
		}
	}
	if count != 1 {
		return false
	}
	for _, o := range r.Outcomes {
		if o.Role == RoleDefeated && !o.Leader.Equal(leader) {
			return false
		}
		if o.Role != RoleLeader && o.Role != RoleDefeated {
			return false
		}
	}
	return true
}

// CrashedCount returns how many agents were crash-stopped by injected
// faults (0 on fault-free runs).
func (r *Result) CrashedCount() int {
	n := 0
	for _, c := range r.Crashed {
		if c {
			n++
		}
	}
	return n
}

// Survived reports whether agent i was not crash-stopped (true for every
// agent of a fault-free run).
func (r *Result) Survived(i int) bool {
	return i >= len(r.Crashed) || !r.Crashed[i]
}

// AllUnsolvable reports whether every agent declared the input unsolvable.
func (r *Result) AllUnsolvable() bool {
	for _, o := range r.Outcomes {
		if o.Role != RoleUnsolvable {
			return false
		}
	}
	return len(r.Outcomes) > 0
}

type engine struct {
	cfg     Config
	boards  []*whiteboard
	agents  []*Agent
	ts      *turnstile // non-nil when cfg.Scheduler drives the run
	aborted int32
	started time.Time

	// Fault-plane state: crashed[i] is written only from agent i's own
	// goroutine and read after the run barrier; takeovers is the
	// abandoned-lock recovery counter; takeoverAfter the per-lock stall
	// budget (defaulted from cfg).
	crashed       []bool
	takeovers     atomic.Int64
	takeoverAfter int

	// Free-running deadlock detection (ts == nil): live counts the agents
	// whose goroutine has not returned, parked those blocked in Wait. stuck
	// is closed once every live agent is parked — then no agent can write a
	// board again, so none can ever wake.
	parkMu       sync.Mutex
	live, parked int
	stuck        chan struct{}
	stuckClosed  bool

	// presMu guards the presentation cache and presRand, the one generator
	// re-seeded for every new (agent, node) presentation.
	presMu   sync.Mutex
	pres     map[[2]int][]int // (agent, node) -> presentation permutation
	presRand *rand.Rand
	seedLo   int64
}

// mix64 is the splitmix64 finalizer: a bijective avalanche mixer, so two
// distinct inputs never collide and close inputs map to unrelated outputs.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// presentationSeed derives the RNG seed of the (agent, node) symbol
// presentation. Chained splitmix rounds keep distinct (agent, node) pairs on
// distinct seed streams — the earlier xor-of-prime-multiples scheme collided
// (e.g. agent·7919 ^ node·104729 is 0 for both (0,0) and (104729, 7919)),
// silently giving two pairs the same shuffle. Regression-tested in
// mix_test.go.
func presentationSeed(seedLo int64, agent, node int) int64 {
	h := mix64(uint64(seedLo))
	h = mix64(h ^ uint64(uint32(agent)))
	h = mix64(h ^ uint64(uint32(node)))
	return int64(h)
}

func (e *engine) presentation(agent, node, deg int) []int {
	e.presMu.Lock()
	defer e.presMu.Unlock()
	key := [2]int{agent, node}
	if p, ok := e.pres[key]; ok {
		return p
	}
	// The presentation is the math/rand stream of its seed: re-seeding the
	// engine's lazyrand generator, an O(1) step, yields the Perm that
	// rand.New(rand.NewSource(seed)) would.
	e.presRand.Seed(presentationSeed(e.seedLo, agent, node))
	p := e.presRand.Perm(deg)
	e.pres[key] = p
	return p
}

// park adjusts the free-running parked and live agent counts and closes
// stuck when every live agent is parked. A waiter stays parked from
// cond.Wait until a broadcast on its own board readies it (the
// broadcaster un-parks it), not until it runs again, so a writer that
// stamps a board and then halts cannot make a readied waiter look stuck.
func (e *engine) park(parked, live int) {
	e.parkMu.Lock()
	defer e.parkMu.Unlock()
	e.parked += parked
	e.live += live
	if e.live > 0 && e.parked == e.live && !e.stuckClosed {
		e.stuckClosed = true
		close(e.stuck)
	}
}

// delay injects the adversarial asynchrony before each operation: a seeded
// random sleep (or a bare yield) in the default mode, or a turnstile step
// when a scheduling strategy drives the run.
func (e *engine) delay(a *Agent) error {
	if atomic.LoadInt32(&e.aborted) != 0 {
		return ErrAborted
	}
	if e.ts != nil {
		if err := e.ts.step(a.index); err != nil {
			return err
		}
		if e.faultsOn() {
			// Every granted sequence point is a crash injection point.
			if act := e.injectAt(a, FaultStep, a.node, ""); act.Crash {
				return e.crash(a, act.HoldLock)
			}
		}
		return nil
	}
	if e.cfg.MaxDelay > 0 {
		d := time.Duration(a.Rand().Int63n(int64(e.cfg.MaxDelay) + 1))
		time.Sleep(d)
	} else {
		runtime.Gosched()
	}
	if atomic.LoadInt32(&e.aborted) != 0 {
		return ErrAborted
	}
	return nil
}

// Run executes the protocol with one goroutine per agent and returns the
// collected outcomes. It validates the configuration (connected graph,
// distinct in-range home-bases, at least one agent).
func Run(cfg Config, protocol Protocol) (*Result, error) {
	if cfg.Graph == nil || cfg.Graph.N() == 0 {
		return nil, errors.New("sim: empty graph")
	}
	if !cfg.Graph.IsConnected() {
		return nil, errors.New("sim: graph must be connected")
	}
	if len(cfg.Homes) == 0 {
		return nil, errors.New("sim: need at least one agent")
	}
	seen := make(map[int]bool)
	for _, h := range cfg.Homes {
		if h < 0 || h >= cfg.Graph.N() {
			return nil, fmt.Errorf("sim: home-base %d out of range", h)
		}
		if seen[h] && !cfg.AllowSharedHomes {
			return nil, fmt.Errorf("sim: duplicate home-base %d (set AllowSharedHomes to permit co-located agents)", h)
		}
		seen[h] = true
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.Faults != nil && cfg.Scheduler == nil {
		return nil, errors.New("sim: fault injection requires the deterministic Scheduler")
	}
	if cfg.PortLabels != nil {
		if err := cfg.PortLabels.Validate(cfg.Graph); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	if cfg.TakeoverAfter <= 0 {
		cfg.TakeoverAfter = 3
	}

	rng := lazyrand.New(cfg.Seed)
	// The rng consumption order below is part of the repository's
	// determinism contract: seedLo, then the palette, then per-agent RNGs,
	// then the wake set. The ColorSeed/SymbolSeed seams override a single
	// draw's value without skipping the draw, so setting them perturbs
	// nothing else.
	seedLo := rng.Int63()
	if cfg.SymbolSeed != 0 {
		seedLo = cfg.SymbolSeed
	}
	e := &engine{
		cfg:           cfg,
		boards:        make([]*whiteboard, cfg.Graph.N()),
		pres:          make(map[[2]int][]int),
		presRand:      lazyrand.New(0),
		seedLo:        seedLo,
		crashed:       make([]bool, len(cfg.Homes)),
		takeoverAfter: cfg.TakeoverAfter,
	}
	if cfg.Scheduler != nil {
		e.ts = newTurnstile(len(cfg.Homes), cfg.Scheduler, cfg.Record)
	} else {
		e.live = len(cfg.Homes)
		e.stuck = make(chan struct{})
	}
	for i := range e.boards {
		e.boards[i] = newWhiteboard()
	}

	// Seed-shuffled palette: agent i's color id is palette[i]+1, so color
	// ids carry no information about agent indices.
	palette := rng.Perm(len(cfg.Homes))
	if cfg.ColorSeed != 0 {
		palette = lazyrand.New(cfg.ColorSeed).Perm(len(cfg.Homes))
	}
	e.agents = make([]*Agent, len(cfg.Homes))
	for i, h := range cfg.Homes {
		e.agents[i] = &Agent{
			eng:     e,
			index:   i,
			color:   Color{id: palette[i] + 1},
			node:    h,
			rngSeed: rng.Int63(),
			id:      i + 1,
		}
	}

	// Label telemetry tracks so timeline exports name each agent's row.
	if cfg.Telemetry != nil {
		for i := range e.agents {
			cfg.Telemetry.SetTrackName(i, "agent "+strconv.Itoa(i))
		}
	}

	// Pre-mark home-bases.
	for i, h := range cfg.Homes {
		e.boards[h].signs = append(e.boards[h].signs, Sign{Color: e.agents[i].color, Tag: TagHome})
	}

	// Wake the initial set.
	wake := map[int]bool{}
	if cfg.WakeAll {
		for i := range cfg.Homes {
			wake[i] = true
		}
	} else {
		k := 1 + rng.Intn(len(cfg.Homes))
		for _, i := range rng.Perm(len(cfg.Homes))[:k] {
			wake[i] = true
		}
	}
	var wakeList []int
	for i := range wake {
		wakeList = append(wakeList, i)
	}
	sort.Ints(wakeList)
	for _, i := range wakeList {
		h := cfg.Homes[i]
		e.boards[h].signs = append(e.boards[h].signs, Sign{Color: e.agents[i].color, Tag: TagWake})
	}

	res := &Result{
		Outcomes: make([]Outcome, len(cfg.Homes)),
		Errors:   make([]error, len(cfg.Homes)),
		Moves:    make([]int64, len(cfg.Homes)),
		Accesses: make([]int64, len(cfg.Homes)),
		Colors:   make([]Color, len(cfg.Homes)),
	}
	for i := range e.agents {
		res.Colors[i] = e.agents[i].color
	}

	start := time.Now()
	e.started = start
	var wg sync.WaitGroup
	for i := range e.agents {
		wg.Add(1)
		go func(a *Agent, i int) {
			defer wg.Done()
			if e.ts != nil {
				// Retiring through the turnstile passes the turn on every
				// exit path, including protocol errors.
				defer e.ts.exit(i)
			} else {
				defer e.park(0, -1)
			}
			// Sleep until woken: a sleeping agent's first action is to wait
			// for a wake sign on its home whiteboard.
			_, err := a.Wait(func(ss Signs) bool { return ss.Has(TagWake) })
			if err != nil {
				res.Errors[i] = err
				return
			}
			e.trace(i, EvWake, a.node, "")
			out, err := protocol(a)
			res.Outcomes[i] = out
			res.Errors[i] = err
			e.trace(i, EvOutcome, a.node, out.Role.String())
		}(e.agents[i], i)
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var runErr error
	// abort unwinds every agent: flag the engine, release the turnstile,
	// and broadcast on all whiteboards until the pool drains so no waiter
	// sleeps through the flag.
	abort := func(cause error) {
		atomic.StoreInt32(&e.aborted, 1)
		if e.ts != nil {
			e.ts.abort()
		}
		for {
			for _, wb := range e.boards {
				wb.mu.Lock()
				wb.cond.Broadcast()
				wb.mu.Unlock()
			}
			select {
			case <-done:
				runErr = cause
			case <-time.After(10 * time.Millisecond):
				continue
			}
			break
		}
	}
	var ctxDone <-chan struct{}
	if cfg.Context != nil {
		ctxDone = cfg.Context.Done()
	}
	// Stop the watchdog when the run ends: under the module's go 1.22
	// timer semantics an unstopped timer stays reachable until it fires,
	// so time.After would pin every finished run's timer for the whole
	// Timeout.
	watchdog := time.NewTimer(cfg.Timeout)
	defer watchdog.Stop()
	select {
	case <-done:
	case <-ctxDone:
		abort(fmt.Errorf("%w: %v", ErrCanceled, cfg.Context.Err()))
	case <-e.stuck:
		abort(ErrDeadlock)
	case <-watchdog.C:
		abort(fmt.Errorf("%w after %v", ErrAborted, cfg.Timeout))
	}
	res.Elapsed = time.Since(start)
	for i := range e.agents {
		res.Moves[i] = e.agents[i].Moves()
		res.Accesses[i] = e.agents[i].Accesses()
	}
	res.Crashed = e.crashed
	res.Takeovers = e.takeovers.Load()
	if e.ts != nil && e.ts.deadlocked() && runErr == nil {
		runErr = ErrDeadlock
	}
	for i, err := range res.Errors {
		// An injected crash is an environment event, not a protocol
		// failure: the crashed agent's ErrCrashed stays per-agent and the
		// survivors' outcomes remain checkable.
		if err != nil && runErr == nil && !errors.Is(err, ErrCrashed) {
			runErr = fmt.Errorf("sim: agent %d: %w", i, err)
		}
	}
	return res, runErr
}
