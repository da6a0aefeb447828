package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Strategy is a pluggable scheduling adversary. When sim.Config.Scheduler is
// set, the engine serializes the run: agents execute one at a time between
// sequence points (a move, a whiteboard access, a wait re-check), and the
// strategy picks which ready agent steps next. Because exactly one agent runs
// between picks, the whole simulation becomes a deterministic function of
// (Config.Seed, grant sequence) — which is what makes recorded schedules
// replayable (see Replay) and lets the campaign engine sweep the schedule
// space with internal/adversary's strategies for invariant violations.
//
// The ready slice is sorted ascending, non-empty, and freshly allocated per
// call (strategies may retain it). Next must return one of its elements; an
// out-of-set pick is corrected to ready[0] by the engine (and counted as a
// divergence by Replay), so a buggy or fuzz-mutated strategy degrades to a
// legal schedule instead of wedging the run.
type Strategy interface {
	// Next picks the agent to grant the next step. step is the number of
	// grants issued so far in this run (0 for the first decision).
	Next(ready []int, step int) int
}

// StrategyFunc adapts a plain function to the Strategy interface.
type StrategyFunc func(ready []int, step int) int

// Next calls f.
func (f StrategyFunc) Next(ready []int, step int) int { return f(ready, step) }

// Schedule is the decision log of a strategy-driven run: the sequence of
// agent indices in grant order. Together with the run's Config (graph, homes,
// seed, protocol) it pins down the entire execution, so a violating run found
// by an adversary sweep can be replayed deterministically.
type Schedule struct {
	// Grants[i] is the agent granted the i-th step.
	Grants []int32
}

// Len returns the number of recorded grants.
func (s *Schedule) Len() int {
	if s == nil {
		return 0
	}
	return len(s.Grants)
}

// Encode serializes the log compactly: one uvarint per grant. Small agent
// indices (the common case) cost one byte per decision.
func (s *Schedule) Encode() []byte {
	var buf [binary.MaxVarintLen64]byte
	out := make([]byte, 0, s.Len()+8)
	for _, g := range s.Grants {
		n := binary.PutUvarint(buf[:], uint64(g))
		out = append(out, buf[:n]...)
	}
	return out
}

// DecodeSchedule parses an Encode-format decision log. It accepts any
// well-formed uvarint stream (fuzz-mutated logs decode to some schedule or
// fail cleanly) but rejects grants that cannot be agent indices.
func DecodeSchedule(data []byte) (*Schedule, error) {
	s := &Schedule{}
	for len(data) > 0 {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errors.New("sim: truncated schedule encoding")
		}
		if v > 1<<30 {
			return nil, fmt.Errorf("sim: implausible agent index %d in schedule", v)
		}
		s.Grants = append(s.Grants, int32(v))
		data = data[n:]
	}
	return s, nil
}

// ReplayStrategy re-issues a recorded grant sequence. As long as the run it
// drives has the same configuration as the recording (graph, homes, seed,
// protocol, options), every wanted agent is ready when its turn comes and the
// replayed run is step-for-step identical to the recorded one (the replay
// round-trip test asserts identical event streams). When the log diverges —
// a mutated log, or a different binary — the wanted agent may not be ready;
// the strategy then skips that entry, falls back to the lowest ready agent,
// and counts the divergence. An exhausted log also falls back to lowest-ready.
type ReplayStrategy struct {
	log         []int32
	pos         int
	divergences int
}

// Replay returns a strategy that re-issues the recorded schedule.
func Replay(s *Schedule) *ReplayStrategy {
	if s == nil {
		return &ReplayStrategy{}
	}
	return &ReplayStrategy{log: s.Grants}
}

// Next implements Strategy.
func (r *ReplayStrategy) Next(ready []int, step int) int {
	for r.pos < len(r.log) {
		want := int(r.log[r.pos])
		r.pos++
		for _, a := range ready {
			if a == want {
				return a
			}
		}
		r.divergences++
	}
	return ready[0]
}

// Divergences reports how many log entries named an agent that was not ready
// (0 for a faithful replay of an unmodified recording).
func (r *ReplayStrategy) Divergences() int { return r.divergences }

// ErrDeadlock is returned by Run when a strategy-driven schedule reaches a
// state where every live agent is blocked in Wait — no grant can make
// progress. A correct protocol never deadlocks on a legal input, so this is
// itself a reportable protocol violation, not an adversary artifact:
// strategies only choose among ready agents and cannot manufacture one.
var ErrDeadlock = errors.New("sim: schedule deadlock (every live agent is blocked)")

// Per-agent turnstile states.
const (
	agStarting = iota // goroutine launched, not yet at its first sequence point
	agReady           // requested a step, awaiting grant
	agRunning         // granted; executing up to its next sequence point
	agBlocked         // parked in Wait on an unsatisfied predicate
	agDone            // protocol returned
)

// turnstile serializes a strategy-driven run. Exactly one agent is agRunning
// at any time; it keeps the turn from its grant until its next call into the
// turnstile (step, block, or exit), at which point the strategy picks the
// next agent from the ready set. Grants are issued only after every agent has
// reached its first sequence point (the startup barrier), so the first
// decision's ready set does not depend on goroutine startup timing.
//
// An abort (deadlock, watchdog, cancellation) keeps the serialization: the
// turn then passes to the live agents in index order, and every turnstile
// call returns ErrAborted to its holder. So agents unwind one at a time and
// the events they emit while unwinding (their outcomes) keep a deterministic
// order, which replay relies on.
type turnstile struct {
	mu       sync.Mutex
	cond     *sync.Cond
	strategy Strategy
	rec      *Schedule

	state     []int
	blockedOn []int // node an agBlocked agent is parked on
	nsteps    int
	aborted   bool
	deadlock  bool
}

func newTurnstile(n int, strategy Strategy, rec *Schedule) *turnstile {
	ts := &turnstile{
		strategy:  strategy,
		rec:       rec,
		state:     make([]int, n),
		blockedOn: make([]int, n),
	}
	ts.cond = sync.NewCond(&ts.mu)
	for i := range ts.state {
		ts.state[i] = agStarting
	}
	return ts
}

// step is the sequence point: the agent gives up its current turn (if any),
// declares itself ready, and waits to be granted the next one.
func (ts *turnstile) step(agent int) error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if !ts.aborted {
		ts.state[agent] = agReady
		ts.scheduleLocked()
	}
	return ts.awaitTurnLocked(agent)
}

// block parks the agent on a board whose wait predicate is unsatisfied. It
// returns once the agent is re-granted a turn after a write dirtied that
// board (the caller re-checks the predicate), or fails on abort/deadlock.
func (ts *turnstile) block(agent, node int) error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if !ts.aborted {
		ts.state[agent] = agBlocked
		ts.blockedOn[agent] = node
		ts.scheduleLocked()
	}
	return ts.awaitTurnLocked(agent)
}

// awaitTurnLocked parks the agent until it holds the turn, then reports
// whether the run was aborted meanwhile. Called with ts.mu held.
func (ts *turnstile) awaitTurnLocked(agent int) error {
	for ts.state[agent] != agRunning {
		ts.cond.Wait()
	}
	if ts.aborted {
		return ErrAborted
	}
	return nil
}

// exit retires the agent (protocol returned or errored) and passes the turn.
func (ts *turnstile) exit(agent int) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.state[agent] = agDone
	ts.scheduleLocked()
}

// notifyBoard readies every agent blocked on the node. Called by the running
// agent (under the board lock) when a write dirties the board; the readied
// agents re-check their predicates when the strategy next grants them.
func (ts *turnstile) notifyBoard(node int) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for a, st := range ts.state {
		if st == agBlocked && ts.blockedOn[a] == node {
			ts.state[a] = agReady
		}
	}
}

// abort makes every agent unwind with ErrAborted, one at a time in index
// order (see unwindLocked).
func (ts *turnstile) abort() {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.aborted = true
	ts.unwindLocked()
}

// unwindLocked passes the turn of an aborted run: unless an agent still
// holds it, the lowest-indexed live agent gets it, whether it is parked or
// has not reached its first sequence point yet. Called with ts.mu held.
func (ts *turnstile) unwindLocked() {
	next := -1
	for a, st := range ts.state {
		if st == agRunning {
			return
		}
		if st != agDone && next < 0 {
			next = a
		}
	}
	if next >= 0 {
		ts.state[next] = agRunning
	}
	ts.cond.Broadcast()
}

func (ts *turnstile) deadlocked() bool {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.deadlock
}

// scheduleLocked issues the next grant if no agent is running and the
// startup barrier has cleared. Called with ts.mu held at every turn end.
func (ts *turnstile) scheduleLocked() {
	if ts.aborted {
		ts.unwindLocked()
		return
	}
	var ready []int
	blocked := 0
	for a, st := range ts.state {
		switch st {
		case agStarting, agRunning:
			return // barrier not cleared, or a turn is still outstanding
		case agReady:
			ready = append(ready, a)
		case agBlocked:
			blocked++
		}
	}
	if len(ready) == 0 {
		if blocked > 0 {
			// Nobody can be granted and nobody running will ever wake the
			// blocked agents: the schedule is wedged.
			ts.deadlock = true
			ts.aborted = true
			ts.unwindLocked()
			return
		}
		ts.cond.Broadcast()
		return
	}
	pick := ts.strategy.Next(ready, ts.nsteps)
	ok := false
	for _, a := range ready {
		if a == pick {
			ok = true
			break
		}
	}
	if !ok {
		pick = ready[0]
	}
	ts.state[pick] = agRunning
	ts.nsteps++
	if ts.rec != nil {
		ts.rec.Grants = append(ts.rec.Grants, int32(pick))
	}
	ts.cond.Broadcast()
}
