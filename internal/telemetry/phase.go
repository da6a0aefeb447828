// Package telemetry is the repository's observability layer: a
// dependency-free metrics registry (counters, gauges, and histograms
// that are sketch.Hist summaries), a per-run collector of phase-scoped
// counters and protocol spans, and a Chrome trace_event exporter so a
// run's timeline opens in Perfetto (ui.perfetto.dev).
//
// The package is deliberately at the bottom of the dependency graph — it
// imports nothing from the repository but its own sketch subpackage — so
// every layer (sim, elect, iso, campaign, the CLIs) can report into it. Two disciplines keep it out of
// the hot paths it observes:
//
//   - Every collection entry point is nil-safe: methods on a nil *Run or
//     nil *Registry (and on the nil metric handles they return) are no-ops
//     that allocate nothing. Instrumented code holds a possibly-nil
//     collector and calls it unconditionally; disabled telemetry costs one
//     predictable branch per event and zero bytes (the sim package guards
//     this with an allocation test).
//   - Enabled counters are single atomic adds into fixed arrays indexed by
//     Phase — no maps, no strings, no formatting on the event path. Spans
//     and instants buffer under a mutex; they are opened at phase
//     granularity, not per event.
package telemetry

// Phase identifies the protocol phase a simulation event or span belongs
// to. The taxonomy follows Protocol ELECT's structure (Section 3 of the
// paper; Theorem 3.1 accounts its O(r·|E|) cost phase by phase):
// map-drawing DFS, surrounding-order computation (COMPUTE & ORDER), the
// AGENT-REDUCE and NODE-REDUCE loops, and the final announcement tour.
type Phase uint8

const (
	// PhaseNone tags events outside any declared phase (engine wake-ups,
	// protocols that do not declare phases).
	PhaseNone Phase = iota
	// PhaseMapDraw is the whiteboard DFS of MAP-DRAWING (Section 3.2).
	PhaseMapDraw
	// PhaseOrder is COMPUTE & ORDER: equivalence classes and the ≺ order.
	PhaseOrder
	// PhaseAgentReduce is the AGENT-REDUCE stage of the gcd reduction.
	PhaseAgentReduce
	// PhaseNodeReduce is the NODE-REDUCE stage of the gcd reduction.
	PhaseNodeReduce
	// PhaseAnnounce is the final announcement (leader/failure tour and the
	// wait for it).
	PhaseAnnounce
	// NumPhases bounds the Phase values; counter arrays are indexed [0,
	// NumPhases).
	NumPhases
)

var phaseNames = [NumPhases]string{
	PhaseNone:        "none",
	PhaseMapDraw:     "mapdraw",
	PhaseOrder:       "order",
	PhaseAgentReduce: "agent-reduce",
	PhaseNodeReduce:  "node-reduce",
	PhaseAnnounce:    "announce",
}

// String names the phase (a fixed, JSON-friendly lowercase identifier).
func (p Phase) String() string {
	if p >= NumPhases {
		return "invalid"
	}
	return phaseNames[p]
}

// PhaseNames returns the names of all phases in Phase order.
func PhaseNames() []string {
	out := make([]string, NumPhases)
	copy(out, phaseNames[:])
	return out
}
