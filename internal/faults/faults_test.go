package faults_test

import (
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/elect"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/sim"
)

func TestPlanEncodeRoundTrip(t *testing.T) {
	p := &faults.Plan{Events: []faults.Event{
		{Kind: faults.KindCrash, Agent: 2, Index: 17, Node: 3},
		{Kind: faults.KindCrashHold, Agent: 0, Index: 0, Node: 0},
		{Kind: faults.KindTorn, Agent: 1, Index: 4, Node: 5, Arg: 3},
		{Kind: faults.KindTornHold, Agent: 3, Index: 9, Node: 1, Arg: 0},
		{Kind: faults.KindStale, Agent: 1, Index: 30, Node: 2, Arg: 2},
	}}
	got, err := faults.DecodePlan(p.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, p)
	}
	got2, err := faults.DecodePlanString(p.EncodeString())
	if err != nil || !reflect.DeepEqual(got2, p) {
		t.Fatalf("base64 round trip failed: %v / %+v", err, got2)
	}
	empty, err := faults.DecodePlan((&faults.Plan{}).Encode())
	if err != nil || len(empty.Events) != 0 {
		t.Fatalf("empty plan round trip failed: %v / %+v", err, empty)
	}
}

func TestDecodePlanRejectsCorruptInput(t *testing.T) {
	good := (&faults.Plan{Events: []faults.Event{{Kind: faults.KindCrash, Agent: 1, Index: 2, Node: 3}}}).Encode()
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   {0x00, 0x01},
		"truncated":   good[:len(good)-1],
		"trailing":    append(append([]byte{}, good...), 0x07),
		"bad kind":    {0xFA, 0x01, 0x63, 0x00, 0x00, 0x00, 0x00},
		"bad base64?": {0xFA},
	}
	for name, data := range cases {
		if _, err := faults.DecodePlan(data); err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
		}
	}
	if _, err := faults.DecodePlanString("!!!not base64!!!"); err == nil {
		t.Error("DecodePlanString accepted junk")
	}
}

func TestNewUnknownStrategy(t *testing.T) {
	if _, err := faults.New("no-such-fault", 1, 3, nil); err == nil {
		t.Fatal("unknown strategy name must error")
	}
	for _, name := range faults.Strategies() {
		if _, err := faults.New(name, 1, 3, []int{0, 2, 4}); err != nil {
			t.Errorf("New(%q): %v", name, err)
		}
	}
}

// deterministicTrace is an Event stream with timestamps zeroed, comparable
// across runs.
func collectTrace(events *[]sim.Event) sim.Tracer {
	return func(e sim.Event) {
		e.At = 0
		*events = append(*events, e)
	}
}

// electInstances are the sweep fixtures: a cycle whose reduction stays in
// AGENT-REDUCE and a star whose two leaf agents race through NODE-REDUCE
// for the center node (so phase-targeted strategies have a target).
func electInstances() []struct {
	name  string
	g     *graph.Graph
	homes []int
} {
	return []struct {
		name  string
		g     *graph.Graph
		homes []int
	}{
		{"c6", graph.Cycle(6), []int{0, 2, 3}},
		{"star4", graph.Star(4), []int{1, 2}},
	}
}

// TestRecordReplayBitExact is the tentpole acceptance test: run ELECT under
// an adversarial schedule with a fault strategy, recording both the
// schedule and the fault plan; replay both; require the identical event
// trace, zero schedule divergences, and a fully consumed plan.
func TestRecordReplayBitExact(t *testing.T) {
	for _, inst := range electInstances() {
		for _, strat := range faults.Strategies() {
			for seed := int64(1); seed <= 4; seed++ {
				g, homes := inst.g, inst.homes
				id := inst.name + "/" + strat
				inj, err := faults.New(strat, seed, len(homes), homes)
				if err != nil {
					t.Fatal(err)
				}
				var rec sim.Schedule
				var trace1 []sim.Event
				res1, err1 := sim.Run(sim.Config{
					Graph: g, Homes: homes, Seed: seed, WakeAll: true,
					Scheduler: adversary.Random(seed), Record: &rec,
					Faults: inj, Tracer: collectTrace(&trace1),
				}, elect.Elect(elect.Options{}))

				plan := inj.Recorded()
				decoded, err := faults.DecodePlan(plan.Encode())
				if err != nil {
					t.Fatalf("%s/%d: plan encode/decode: %v", id, seed, err)
				}

				replayInj := faults.Replay(decoded)
				replaySched := sim.Replay(&rec)
				var trace2 []sim.Event
				res2, err2 := sim.Run(sim.Config{
					Graph: g, Homes: homes, Seed: seed, WakeAll: true,
					Scheduler: replaySched,
					Faults:    replayInj, Tracer: collectTrace(&trace2),
				}, elect.Elect(elect.Options{}))

				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("%s/%d: run errors differ: %v vs %v", id, seed, err1, err2)
				}
				if !reflect.DeepEqual(trace1, trace2) {
					t.Fatalf("%s/%d: replayed trace differs (%d vs %d events)", id, seed, len(trace1), len(trace2))
				}
				if d := replaySched.Divergences(); d != 0 {
					t.Fatalf("%s/%d: %d schedule divergences on replay", id, seed, d)
				}
				if u := replayInj.Unapplied(); u != 0 {
					t.Fatalf("%s/%d: %d plan events never re-issued", id, seed, u)
				}
				if !reflect.DeepEqual(replayInj.Recorded(), plan) {
					t.Fatalf("%s/%d: replay re-recorded a different plan", id, seed)
				}
				if res1 != nil && res2 != nil && !reflect.DeepEqual(res1.Crashed, res2.Crashed) {
					t.Fatalf("%s/%d: crash sets differ: %v vs %v", id, seed, res1.Crashed, res2.Crashed)
				}
			}
		}
	}
}

// TestStrategyDeterminism: the same (strategy, seed, schedule) always
// injects the same plan bytes.
func TestStrategyDeterminism(t *testing.T) {
	for _, inst := range electInstances() {
		for _, strat := range faults.Strategies() {
			var first []byte
			for rep := 0; rep < 2; rep++ {
				inj, err := faults.New(strat, 3, len(inst.homes), inst.homes)
				if err != nil {
					t.Fatal(err)
				}
				_, _ = sim.Run(sim.Config{
					Graph: inst.g, Homes: inst.homes, Seed: 3, WakeAll: true,
					Scheduler: adversary.Random(3), Faults: inj,
				}, elect.Elect(elect.Options{}))
				enc := inj.Recorded().Encode()
				if rep == 0 {
					first = enc
				} else if !reflect.DeepEqual(first, enc) {
					t.Fatalf("%s/%s: plan bytes differ across identical runs", inst.name, strat)
				}
			}
		}
	}
}

// TestSweepNeverTwoLeaders runs the full fault-strategy × seed sweep on a
// solvable and an unsolvable instance and checks the fault-aware
// invariants: crashes may make the run fail, but never produce two leaders
// or a wrong leader.
func TestSweepNeverTwoLeaders(t *testing.T) {
	instances := []struct {
		name  string
		g     *graph.Graph
		homes []int
	}{
		{"solvable-c6", graph.Cycle(6), []int{0, 2, 3}},
		{"unsolvable-c6", graph.Cycle(6), []int{0, 3}},
		{"node-reduce-star4", graph.Star(4), []int{1, 2}},
	}
	for _, inst := range instances {
		an, err := elect.Analyze(inst.g, inst.homes, order.Direct)
		if err != nil {
			t.Fatal(err)
		}
		spec := elect.SpecFromAnalysis(an, inst.g.M(), 40)
		spec.FaultsInjected = true
		for _, strat := range faults.Strategies() {
			for seed := int64(1); seed <= 6; seed++ {
				inj, err := faults.New(strat, seed, len(inst.homes), inst.homes)
				if err != nil {
					t.Fatal(err)
				}
				res, runErr := sim.Run(sim.Config{
					Graph: inst.g, Homes: inst.homes, Seed: seed, WakeAll: true,
					Scheduler: adversary.Random(seed), Faults: inj,
				}, elect.Elect(elect.Options{}))
				for _, v := range elect.CheckInvariants(res, runErr, spec) {
					t.Errorf("%s/%s/seed %d: %s (plan: %s)",
						inst.name, strat, seed, v, inj.Recorded().Summary())
				}
			}
		}
	}
}

// TestKindStrings pins the diagnostic renderings.
func TestKindStrings(t *testing.T) {
	want := map[faults.Kind]string{
		faults.KindCrash:     "crash",
		faults.KindCrashHold: "crash-hold",
		faults.KindTorn:      "torn",
		faults.KindTornHold:  "torn-hold",
		faults.KindStale:     "stale",
		faults.Kind(99):      "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
	ev := faults.Event{Kind: faults.KindTorn, Agent: 1, Index: 4, Node: 5, Arg: 3}
	if ev.String() != "torn a1 write#4 @n5 arg=3" {
		t.Errorf("Event.String() = %q", ev.String())
	}
	if (&faults.Plan{}).Summary() != "no faults injected" {
		t.Errorf("empty plan summary = %q", (&faults.Plan{}).Summary())
	}
}
