// Package adversary holds the scheduling adversaries of the asynchronous
// simulator and the replay artifact of a scheduled run.
//
// Theorem 3.1 claims correctness of Protocol ELECT on *every* asynchronous
// execution, but a seeded random-delay run exercises exactly one schedule.
// The strategies here (see Strategies) drive the sim.Strategy turnstile so
// each run's decision log pins its execution down, and probe qualitatively
// different corners: uniform random, fair round-robin, starvation of one
// agent, convoy bursts, global lockstep, and the greedy same-class attacker
// that keeps automorphism-equivalent agents maximally concurrent at the
// symmetry-breaking whiteboard races of AGENT-REDUCE / NODE-REDUCE.
//
// The campaign engine (internal/campaign) sweeps instances × strategies ×
// fault plans × seeds and checks the elect invariants after every run; a
// violating run's record carries a ScheduleFile, which cmd/elect -replay
// re-executes bit-for-bit through sim.Replay.
package adversary

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/elect"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/sim"
)

// AgentClasses maps each agent to the automorphism-equivalence class index
// of its home node under the bicolored instance — the input the same-class
// strategy targets. Exported for callers (campaign, CLIs) that construct
// strategies directly via NewStrategy.
func AgentClasses(g *graph.Graph, homes []int) []int {
	classes := order.Classes(g, elect.BlackColors(g.N(), homes))
	nodeClass := make([]int, g.N())
	for ci, nodes := range classes {
		for _, v := range nodes {
			nodeClass[v] = ci
		}
	}
	out := make([]int, len(homes))
	for i, h := range homes {
		out[i] = nodeClass[h]
	}
	return out
}

// EncodeScheduleString renders a decision log as base64 (the JSON-friendly
// form of Schedule.Encode).
func EncodeScheduleString(s *sim.Schedule) string {
	return base64.StdEncoding.EncodeToString(s.Encode())
}

// DecodeScheduleString parses EncodeScheduleString output.
func DecodeScheduleString(s string) (*sim.Schedule, error) {
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("adversary: bad schedule base64: %w", err)
	}
	return sim.DecodeSchedule(raw)
}

// ScheduleFile is a self-contained replay artifact: everything needed to
// re-execute one recorded run deterministically. A violating campaign
// record carries one as its replay field, cmd/elect -record writes one,
// and cmd/elect -replay consumes either.
type ScheduleFile struct {
	// Family and Size name the graph generator (campaign.BuildGraph
	// vocabulary) so the replayer can reconstruct the instance.
	Family string `json:"family"`
	Size   int    `json:"size"`
	Homes  []int  `json:"homes"`
	// Seed is the simulation seed of the recorded run (colors,
	// presentations, wake set); Protocol names the protocol that ran.
	Seed     int64  `json:"seed"`
	Protocol string `json:"protocol"`
	// WakeAll records the wake-up mode of the run (the wake set is part of
	// the execution, so replay must match it).
	WakeAll bool `json:"wake_all,omitempty"`
	// Hairs records that the class order ≺ used the paper's hair
	// construction (Lemma 3.1) instead of the direct canonical order.
	Hairs bool `json:"hairs,omitempty"`
	// Strategy names the strategy that produced the log (informational).
	Strategy string `json:"strategy"`
	// Schedule is the base64 decision log.
	Schedule string `json:"schedule"`
	// Fault names the fault strategy of the recorded run and FaultPlan
	// carries its base64 fault plan (faults.DecodePlanString); both empty
	// for fault-free runs. Replays must re-inject the plan to match.
	Fault     string `json:"fault,omitempty"`
	FaultPlan string `json:"fault_plan,omitempty"`
}

// Decode returns the decision log carried by the file.
func (f *ScheduleFile) Decode() (*sim.Schedule, error) {
	return DecodeScheduleString(f.Schedule)
}

// WriteFile saves the artifact as indented JSON.
func (f *ScheduleFile) WriteFile(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadScheduleFile reads a ScheduleFile written by WriteFile (or extracted
// from a campaign record's replay field).
func LoadScheduleFile(path string) (*ScheduleFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f ScheduleFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("adversary: %s: %w", path, err)
	}
	return &f, nil
}
