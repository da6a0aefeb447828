package campaign

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/elect"
)

// syntheticResults builds n plausible run records spanning the summary's
// aggregation branches: successes across a wide move range, errors,
// fault runs with crashes, strategy runs with violations, canceled runs.
func syntheticResults(n int, seed int64) []RunResult {
	rng := rand.New(rand.NewSource(seed))
	out := make([]RunResult, n)
	for i := range out {
		r := RunResult{
			Index: i, Instance: "cycle12[0 4 8]", Protocol: "elect",
			N: 12, M: 12, R: 3, Seed: int64(i), Attempts: 1 + rng.Intn(2),
			ElapsedMS: rng.Float64() * 3,
		}
		switch k := rng.Intn(20); {
		case k == 0:
			r.Outcome, r.Err = "error", "sim: aborted"
			r.Aborted = true
		case k == 1:
			r.Outcome = "canceled"
			r.Err = "campaign: canceled before run started"
			r.Attempts = 0
		case k == 2:
			r.Outcome, r.Fault = "leader", "crash-frontrunner"
			r.Crashed = rng.Intn(3)
			r.Takeovers = int64(rng.Intn(2))
			r.FaultEvents = r.Crashed
			r.OK = true
			r.Moves = int64(100 + rng.Intn(100000))
		case k == 3:
			r.Outcome, r.Strategy = "leader", "starve"
			r.Violations = []elect.Violation{{Code: elect.ViolationCode("move-bound"), Detail: "x"}}
			r.OK = false
			r.Moves = int64(100 + rng.Intn(100000))
		default:
			r.Outcome = "leader"
			r.OK = true
			r.Moves = int64(50 + rng.Intn(1_000_000))
		}
		if r.Outcome != "canceled" && r.Err == "" {
			r.Accesses = r.Moves * int64(2+rng.Intn(3))
			r.Ratio = float64(r.Moves) / float64(r.R*r.M)
			r.PhaseMoves = map[string]int64{"mapdraw": r.Moves / 2, "order": r.Moves / 4}
			r.PhaseAccesses = map[string]int64{"mapdraw": r.Accesses / 2}
		}
		out[i] = r
	}
	return out
}

// TestSummaryIsFunctionOfResults: the summary of 10⁴ synthetic runs is
// the same whatever order the results are folded in, and every count in
// it is exact — checked against an independent tally of the records.
func TestSummaryIsFunctionOfResults(t *testing.T) {
	const n = 10_000
	results := syntheticResults(n, 42)
	want := summarize(results, 40, 4, 100, 7, 3, 5)

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3; trial++ {
		shuffled := append([]RunResult(nil), results...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := summarize(shuffled, 40, 4, 100, 7, 3, 5); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: summary depends on result order:\n got %+v\nwant %+v", trial, got, want)
		}
	}

	var tally Summary
	tally.Outcomes = map[string]int{}
	var moves []int64
	var violating int64
	for _, r := range results {
		tally.Outcomes[r.Outcome]++
		if r.Outcome == "canceled" {
			tally.Canceled++
			continue
		}
		tally.Retries += r.Attempts - 1
		if len(r.Violations) > 0 {
			violating++
		}
		if r.Fault != "" {
			tally.FaultRuns++
			tally.CrashedAgents += r.Crashed
			tally.Takeovers += r.Takeovers
			tally.FaultEvents += r.FaultEvents
		}
		if r.Err != "" {
			tally.Errors++
			if r.Aborted {
				tally.Aborted++
			}
			continue
		}
		if !r.OK {
			tally.Mismatches++
		}
		if r.Ratio > 40 {
			tally.BoundViolations++
		}
		tally.RatioMax = max(tally.RatioMax, r.Ratio)
		moves = append(moves, r.Moves)
	}
	if want.Runs != n || want.Canceled != tally.Canceled || want.Retries != tally.Retries ||
		want.Errors != tally.Errors || want.Aborted != tally.Aborted ||
		want.Mismatches != tally.Mismatches || want.InvariantViolations != int(violating) ||
		want.FaultRuns != tally.FaultRuns || want.CrashedAgents != tally.CrashedAgents ||
		want.Takeovers != tally.Takeovers || want.FaultEvents != tally.FaultEvents ||
		want.BoundViolations != tally.BoundViolations || want.RatioMax != tally.RatioMax ||
		!reflect.DeepEqual(want.Outcomes, tally.Outcomes) {
		t.Fatalf("summary counts diverge from the tally:\nsummary %+v\ntally   %+v (violating runs %d)", want, tally, violating)
	}
	// Exact nearest-rank percentiles: the ceil(n·p/100)-th smallest value.
	sort.Slice(moves, func(i, j int) bool { return moves[i] < moves[j] })
	for _, c := range []struct {
		p   int
		got int64
	}{{50, want.MovesP50}, {90, want.MovesP90}, {99, want.MovesP99}} {
		if exact := moves[(len(moves)*c.p+99)/100-1]; c.got != exact {
			t.Errorf("moves p%d = %d, want exact %d", c.p, c.got, exact)
		}
	}
	// Every violating synthetic run carries one move-bound violation on the
	// same instance and strategy: one signature, counted exactly.
	if len(want.TopViolations) != 1 || want.TopViolations[0].Count != violating ||
		want.TopViolations[0].Signature != "move-bound|cycle12[0 4 8]|starve" {
		t.Fatalf("top violations %+v, want one signature counting the %d violating runs", want.TopViolations, violating)
	}
}
