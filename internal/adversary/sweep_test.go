package adversary_test

import (
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/campaign"
	"repro/internal/elect"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/sim"
)

// sweepInstances are the seed instances of the schedule-space sweep:
// solvable and unsolvable, symmetric and asymmetric placements. Grid(2,3)
// and CompleteBipartite(2,3) have no generator name, so the sweep builds
// explicit campaign runs rather than a spec.
var sweepInstances = []struct {
	name  string
	g     *graph.Graph
	homes []int
}{
	{"path4-adjacent", graph.Path(4), []int{0, 1}},              // gcd 1 → leader
	{"path5-mirror", graph.Path(5), []int{0, 2, 4}},             // classes {2,1}, gcd 1 → leader
	{"cycle6-antipodal", graph.Cycle(6), []int{0, 3}},           // one class of 2 → unsolvable
	{"star4-leaves", graph.Star(4), []int{1, 2, 3}},             // one class of 3 → unsolvable
	{"complete4-pair", graph.Complete(4), []int{0, 1}},          // one class of 2 → unsolvable
	{"prism3-asym", graph.Prism(3), []int{0, 1, 2}},             // one triangle fully occupied
	{"grid23-corner", graph.Grid(2, 3), []int{0}},               // single agent → leader
	{"cycle5-adjacent", graph.Cycle(5), []int{0, 1}},            // reflection-symmetric pair
	{"bipartite23", graph.CompleteBipartite(2, 3), []int{0, 2}}, // sides differ, gcd 1
}

// TestExploreSeedInstancesClean is the acceptance sweep of the strategies:
// every built-in strategy × seeds 1–3 over the seed instances, run through
// the campaign engine, expecting no failing run, the oracle's outcome on
// every record, and no replay bundle on a clean record.
func TestExploreSeedInstancesClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full adversary sweep in -short mode")
	}
	for _, inst := range sweepInstances {
		t.Run(inst.name, func(t *testing.T) {
			t.Parallel()
			var runs []campaign.Run
			for _, strat := range adversary.Strategies() {
				for seed := int64(1); seed <= 3; seed++ {
					runs = append(runs, campaign.Run{
						Instance: inst.name, G: inst.g, Homes: inst.homes, Seed: seed,
						Protocol: campaign.ProtoElect, Strategy: strat,
					})
				}
			}
			rep, err := campaign.ExecuteRuns(runs, campaign.Options{RunTimeout: 30 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			if f := rep.Failures(); len(f) > 0 {
				t.Fatalf("%d failing runs on a seed instance, first %+v:\n%s", len(f), f[0], rep.Summary.Render())
			}
			for _, r := range rep.Results {
				if r.Outcome != r.Expected {
					t.Fatalf("[%s seed %d] outcome %q, oracle expects %q", r.Strategy, r.Seed, r.Outcome, r.Expected)
				}
				if r.Replay != nil {
					t.Fatalf("[%s seed %d] clean run carries a replay bundle", r.Strategy, r.Seed)
				}
			}
		})
	}
}

// brokenElect is the deliberately broken variant: every agent crowns itself
// without any exploration. The checker must catch it on every schedule.
func brokenElect(a *sim.Agent) (sim.Outcome, error) {
	return sim.Outcome{Role: sim.RoleLeader, Leader: a.Color()}, nil
}

// TestExploreCatchesBrokenProtocol proves the invariant checker fires under
// every strategy: the self-crowning protocol driven by each built-in
// strategy produces a multiple-leaders violation, and the decision log the
// run recorded survives the replay artifact's string codec.
func TestExploreCatchesBrokenProtocol(t *testing.T) {
	g, homes := graph.Cycle(6), []int{0, 3}
	an, err := elect.Analyze(g, homes, order.Direct)
	if err != nil {
		t.Fatal(err)
	}
	spec := elect.SpecFromAnalysis(an, g.M(), 40)
	classOf := adversary.AgentClasses(g, homes)
	for _, strat := range adversary.Strategies() {
		for seed := int64(1); seed <= 2; seed++ {
			scheduler, err := adversary.NewStrategy(strat, seed, classOf)
			if err != nil {
				t.Fatal(err)
			}
			log := &sim.Schedule{}
			res, runErr := sim.Run(sim.Config{
				Graph: g, Homes: homes, Seed: seed, WakeAll: true,
				Timeout: 30 * time.Second, Scheduler: scheduler, Record: log,
			}, brokenElect)
			found := false
			vs := elect.CheckInvariants(res, runErr, spec)
			for _, v := range vs {
				found = found || v.Code == elect.VioMultipleLeaders
			}
			if !found {
				t.Fatalf("[%s seed %d] missing %s: %v", strat, seed, elect.VioMultipleLeaders, vs)
			}
			dec, err := adversary.DecodeScheduleString(adversary.EncodeScheduleString(log))
			if err != nil {
				t.Fatalf("[%s seed %d] undecodable schedule: %v", strat, seed, err)
			}
			if len(log.Grants) == 0 || len(dec.Grants) != len(log.Grants) {
				t.Fatalf("[%s seed %d] schedule of %d grants decoded to %d", strat, seed, len(log.Grants), len(dec.Grants))
			}
		}
	}
}

// TestExploreFaultAxis crosses scheduling strategies with the crash
// strategies on one instance through the campaign engine: the sweep must
// stay safety-clean under the fault-aware spec, every run must carry its
// fault manifest, every non-stale fault event must crash its agent, and at
// least one agent must crash so the axis is known to be live.
func TestExploreFaultAxis(t *testing.T) {
	spec := campaign.Spec{
		Families:   []campaign.FamilySpec{{Family: "star", Sizes: []int{4}, Homes: [][]int{{1, 2}}}},
		Seeds:      campaign.SeedRange{From: 1, To: 3},
		Protocol:   campaign.ProtoElect,
		Strategies: []string{"random", "same-class"},
		Faults:     []string{"crash-frontrunner", "crash-lockholder"},
	}
	runs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 3; len(runs) != want {
		t.Fatalf("expanded to %d runs, want %d", len(runs), want)
	}
	rep, err := campaign.ExecuteRuns(runs, campaign.Options{RunTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.InvariantViolations != 0 {
		t.Fatalf("fault sweep violated safety:\n%s", rep.Summary.Render())
	}
	if rep.Summary.CrashedAgents == 0 {
		t.Fatal("no agent ever crashed — fault axis not wired through")
	}
	for _, r := range rep.Results {
		if r.Fault == "" || r.FaultPlan == "" {
			t.Fatalf("[%s seed %d] missing fault manifest: fault %q, plan %q", r.Strategy, r.Seed, r.Fault, r.FaultPlan)
		}
		plan, err := faults.DecodePlanString(r.FaultPlan)
		if err != nil {
			t.Fatalf("[%s+%s seed %d] bad fault plan: %v", r.Strategy, r.Fault, r.Seed, err)
		}
		stale := 0
		for _, e := range plan.Events {
			if e.Kind == faults.KindStale {
				stale++
			}
		}
		if r.Crashed != r.FaultEvents-stale {
			t.Fatalf("[%s+%s seed %d] crashed=%d but the plan has %d non-stale events",
				r.Strategy, r.Fault, r.Seed, r.Crashed, r.FaultEvents-stale)
		}
	}
}
