package campaign

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/elect"
	"repro/internal/faults"
	"repro/internal/sim"
)

// selfCrowning is the deliberately broken protocol: every agent crowns
// itself without exploring, so every schedule breaks the invariants.
func selfCrowning(a *sim.Agent) (sim.Outcome, error) {
	return sim.Outcome{Role: sim.RoleLeader, Leader: a.Color()}, nil
}

// checkReplay re-executes a record's replay bundle the way cmd/elect
// -replay does — the graph from the generator registry, the decision log
// through sim.Replay, the fault plan through faults.Replay — and requires
// the record's violations again, with 0 scheduling divergences and 0
// unapplied fault events.
func checkReplay(t *testing.T, r RunResult, p sim.Protocol) {
	t.Helper()
	b := r.Replay
	if b == nil {
		t.Fatalf("run %d (%s seed %d): violating record has no replay bundle", r.Index, r.Strategy, r.Seed)
	}
	g, err := BuildGraph(b.Family, b.Size)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := b.Decode()
	if err != nil {
		t.Fatalf("run %d: undecodable schedule: %v", r.Index, err)
	}
	replay := sim.Replay(sched)
	cfg := sim.Config{
		Graph: g, Homes: b.Homes, Seed: b.Seed, WakeAll: b.WakeAll,
		Timeout: 30 * time.Second, Scheduler: replay,
	}
	var inj *faults.Injector
	if b.FaultPlan != "" {
		plan, err := faults.DecodePlanString(b.FaultPlan)
		if err != nil {
			t.Fatalf("run %d: undecodable fault plan: %v", r.Index, err)
		}
		inj = faults.Replay(plan)
		cfg.Faults = inj
	}
	res, runErr := sim.Run(cfg, p)
	vs := elect.CheckInvariants(res, runErr, elect.InvariantSpec{
		Expected: r.Expected, M: g.M(), RatioBound: 40, FaultsInjected: b.Fault != "",
	})
	if !reflect.DeepEqual(vs, r.Violations) {
		t.Fatalf("run %d: replay found %v, record has %v", r.Index, vs, r.Violations)
	}
	if d := replay.Divergences(); d != 0 {
		t.Fatalf("run %d: replay diverged %d times", r.Index, d)
	}
	if inj != nil && inj.Unapplied() != 0 {
		t.Fatalf("run %d: %d fault events never re-issued", r.Index, inj.Unapplied())
	}
}

// TestViolatingRunReplays closes the loop from a campaign record back to
// the execution: every violating record's bundle replays to the same
// violations, following its schedule and fault plan exactly.
func TestViolatingRunReplays(t *testing.T) {
	spec := Spec{
		Families:   []FamilySpec{{Family: "star", Sizes: []int{4}, Homes: [][]int{{1, 2}}}},
		Seeds:      SeedRange{From: 1, To: 2},
		Strategies: []string{"random", "same-class"},
		Faults:     []string{"stale-reads"},
	}
	runs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ExecuteRuns(runs, Options{
		WakeAll:      true,
		testProtocol: func(Run, int) sim.Protocol { return selfCrowning },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if len(r.Violations) == 0 {
			t.Fatalf("run %d (%s seed %d): self-crowning run shows no violation", r.Index, r.Strategy, r.Seed)
		}
		checkReplay(t, r, selfCrowning)
	}
}

// TestRetriedRunReplays pins the bundle's seed to the final attempt: the
// first attempt moves forever until the watchdog aborts it, the retry
// crowns itself under seed Seed + retrySeedOffset, and that is the seed
// the bundle must carry to replay.
func TestRetriedRunReplays(t *testing.T) {
	spec := Spec{
		Families:   []FamilySpec{{Family: "cycle", Sizes: []int{6}, Placement: "spread", R: 2}},
		Seeds:      SeedRange{From: 5, To: 5},
		Strategies: []string{"random"},
	}
	runs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// A protocol that only waits would end in a deadlock, which is never
	// retried; moving forever is what the watchdog aborts.
	moveForever := func(a *sim.Agent) (sim.Outcome, error) {
		for {
			if _, err := a.Move(a.Symbols()[0]); err != nil {
				return sim.Outcome{}, err
			}
		}
	}
	rep, err := ExecuteRuns(runs, Options{
		Workers:    1,
		RunTimeout: 100 * time.Millisecond,
		MaxRetries: 1,
		testProtocol: func(_ Run, attempt int) sim.Protocol {
			if attempt == 1 {
				return moveForever
			}
			return selfCrowning
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Results[0]
	if r.Attempts != 2 || len(r.Violations) == 0 || r.Replay == nil {
		t.Fatalf("want a violating retried run with a bundle, got %+v", r)
	}
	if want := int64(5 + 1_000_003); r.Replay.Seed != want {
		t.Fatalf("bundle seed %d, want the retry's seed %d (record seed %d)", r.Replay.Seed, want, r.Seed)
	}
	checkReplay(t, r, selfCrowning)
}
