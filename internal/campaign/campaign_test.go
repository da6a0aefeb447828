package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/analysiscache"
	"repro/internal/elect"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/sim"
)

// acceptanceSpec is the ISSUE acceptance campaign: cycles and hypercubes ×
// 25 seeds ≥ 200 runs, mixing solvable (adjacent placements, gcd 1) and
// unsolvable (evenly spread placements, gcd r) instances.
func acceptanceSpec() Spec {
	return Spec{
		Families: []FamilySpec{
			{Family: "cycle", Sizes: []int{6, 9, 12, 15, 18, 24}, Placement: "spread", R: 3},
			{Family: "cycle", Sizes: []int{9, 15}, Placement: "adjacent", R: 3},
			{Family: "hypercube", Sizes: []int{3, 4}, Placement: "spread", R: 2},
		},
		Seeds:    SeedRange{From: 1, To: 25},
		Protocol: ProtoElect,
	}
}

const acceptanceRuns = 250 // 10 instances × 25 seeds

func TestSpecExpand(t *testing.T) {
	spec := acceptanceSpec()
	runs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != acceptanceRuns {
		t.Fatalf("expanded to %d runs, want %d", len(runs), acceptanceRuns)
	}
	again, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i := range runs {
		if runs[i].Instance != again[i].Instance || runs[i].Seed != again[i].Seed {
			t.Fatalf("expansion not deterministic at %d: %+v vs %+v", i, runs[i], again[i])
		}
	}
	// Same (family, size) shares one graph value across seeds.
	if runs[0].G != runs[1].G {
		t.Error("seeds of one instance should share the graph value")
	}
}

func TestCampaignAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var jsonl bytes.Buffer
	rep, err := Execute(acceptanceSpec(), Options{JSONL: &jsonl})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summary
	if s.Runs != acceptanceRuns {
		t.Fatalf("runs: %d, want %d", s.Runs, acceptanceRuns)
	}
	if s.Errors != 0 || s.Mismatches != 0 {
		t.Fatalf("errors=%d mismatches=%d; failures: %+v", s.Errors, s.Mismatches, rep.Failures())
	}
	// Theorem 3.1: every run's moves stay within c·r·|E|.
	if s.BoundViolations != 0 || s.RatioMax > s.RatioBound {
		t.Fatalf("move bound violated: max ratio %.1f, %d violations", s.RatioMax, s.BoundViolations)
	}
	// 10 instances, 250 runs: the analysis cache must serve 240 hits.
	if s.CacheHitRate <= 0 {
		t.Fatalf("cache hit rate %.2f, want > 0", s.CacheHitRate)
	}
	if s.CacheMisses != 10 {
		t.Errorf("cache misses: %d, want 10 (one per instance)", s.CacheMisses)
	}
	// Both verdicts must occur across the sweep (gcd 1 and gcd > 1 inputs).
	if s.Outcomes["leader"] == 0 || s.Outcomes["unsolvable"] == 0 {
		t.Errorf("outcome mix missing a verdict: %v", s.Outcomes)
	}
	if n := strings.Count(jsonl.String(), "\n"); n != acceptanceRuns {
		t.Errorf("jsonl lines: %d, want %d", n, acceptanceRuns)
	}
}

// canonicalJSONL parses a JSONL stream, keeps each record's deterministic
// part and sorts the records by index for the determinism diff.
func canonicalJSONL(t *testing.T, raw []byte) []RunResult {
	t.Helper()
	var out []RunResult
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r RunResult
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("bad jsonl line %q: %v", line, err)
		}
		out = append(out, r.Deterministic())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// deterministicSummary zeroes a Summary's pool-level fields: the worker
// count, the timings and the analysis cache's counts.
func deterministicSummary(s Summary) Summary {
	s.Workers = 0
	s.WallMS, s.SerialMS, s.SpeedupEst, s.AnalysisMS = 0, 0, 0, 0
	s.CacheHits, s.CacheMisses, s.CacheHitRate = 0, 0, 0
	return s
}

// TestCampaignDeterminism runs the same spec twice — under different worker
// counts — and diffs the sorted JSONL records and the summaries: execution
// must be deterministic per (spec, seed) modulo worker interleaving.
func TestCampaignDeterminism(t *testing.T) {
	spec := Spec{
		Families: []FamilySpec{
			{Family: "cycle", Sizes: []int{9, 12}, Placement: "spread", R: 3},
			{Family: "hypercube", Sizes: []int{3}, Placement: "spread", R: 2},
		},
		Seeds:    SeedRange{From: 1, To: 10},
		Protocol: ProtoElect,
	}
	var a, b bytes.Buffer
	repA, err := Execute(spec, Options{Workers: 4, JSONL: &a})
	if err != nil {
		t.Fatal(err)
	}
	repB, err := Execute(spec, Options{Workers: 2, JSONL: &b})
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := canonicalJSONL(t, a.Bytes()), canonicalJSONL(t, b.Bytes())
	if len(ra) != len(rb) {
		t.Fatalf("record counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if !reflect.DeepEqual(ra[i], rb[i]) {
			t.Fatalf("record %d differs between runs:\n  %+v\n  %+v", i, ra[i], rb[i])
		}
	}
	if sa, sb := deterministicSummary(repA.Summary), deterministicSummary(repB.Summary); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("summaries differ between runs:\n  %+v\n  %+v", sa, sb)
	}
}

// TestCampaignSpeedup checks the pool actually parallelizes: a
// delay-injected campaign must finish at least 2x faster with a real pool
// than with one worker. Runs block on the adversary's seeded sleeps, so
// pooled runs overlap even on a single-core runner; on multi-core hardware
// the CPU-bound protocol work parallelizes on top of that.
func TestCampaignSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := Spec{
		Families: []FamilySpec{
			{Family: "cycle", Sizes: []int{6, 9}, Placement: "spread", R: 2},
		},
		Seeds:    SeedRange{From: 1, To: 30},
		Protocol: ProtoElect,
	}
	delay := 300 * time.Microsecond
	workers := max(4, runtime.GOMAXPROCS(0))
	t0 := time.Now()
	if _, err := Execute(spec, Options{Workers: 1, MaxDelay: delay}); err != nil {
		t.Fatal(err)
	}
	serial := time.Since(t0)
	t0 = time.Now()
	if _, err := Execute(spec, Options{Workers: workers, MaxDelay: delay}); err != nil {
		t.Fatal(err)
	}
	parallel := time.Since(t0)
	if speedup := float64(serial) / float64(parallel); speedup < 2 {
		t.Errorf("pool speedup %.2fx over -workers=1 with %d workers, want >= 2x (serial %v, parallel %v)",
			speedup, workers, serial, parallel)
	}
}

// stall is a protocol that never finishes and never parks: it re-reads its
// board until the run is aborted. A protocol that only waits would end in
// a deadlock, which the simulator reports at once and campaign never
// retries; a stalled run is what the watchdog (or cancellation) ends.
func stall(a *sim.Agent) (sim.Outcome, error) {
	for {
		if err := a.Access(func(*sim.Board) {}); err != nil {
			return sim.Outcome{}, err
		}
		time.Sleep(time.Millisecond)
	}
}

// TestElectSharesComputeAndOrder: the agents of one ELECT protocol value
// share one COMPUTE & ORDER memo, so 1,000 runs of one instance key its
// k = 3 classes at most once per agent of the first run (r·k = 9), not once
// per agent per run (9,000).
func TestElectSharesComputeAndOrder(t *testing.T) {
	g := graph.Cycle(12)
	runs := make([]Run, 1000)
	for i := range runs {
		runs[i] = Run{Instance: "cycle12[0 4 8]", G: g, Homes: []int{0, 4, 8}, Seed: int64(i + 1), Protocol: ProtoElect}
	}
	before := order.KeysComputed()
	rep, err := ExecuteRuns(runs, Options{Workers: 1, NoAnalysis: true})
	if err != nil {
		t.Fatal(err)
	}
	if f := rep.Failures(); len(f) > 0 {
		t.Fatalf("%d failed runs, first: %+v", len(f), f[0])
	}
	if keys := order.KeysComputed() - before; keys > 9 {
		t.Fatalf("1,000 runs computed %d class keys, want at most r·k = 9", keys)
	}
}

// TestWatchdogRetry exercises the watchdog + reseeded-retry path: the first
// attempt stalls until the watchdog aborts it, the retry runs the real
// protocol and succeeds.
func TestWatchdogRetry(t *testing.T) {
	real := elect.Elect(elect.Options{})
	g := graph.Cycle(6)
	runs := []Run{{Instance: "cycle6[0 2]", G: g, Homes: []int{0, 2}, Seed: 1, Protocol: ProtoElect}}
	rep, err := ExecuteRuns(runs, Options{
		Workers:    1,
		RunTimeout: 150 * time.Millisecond,
		MaxRetries: 2,
		testProtocol: func(_ Run, attempt int) sim.Protocol {
			if attempt == 1 {
				return stall
			}
			return real
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Results[0]
	if r.Attempts != 2 {
		t.Errorf("attempts: %d, want 2", r.Attempts)
	}
	if r.Outcome != "leader" || r.Err != "" {
		t.Errorf("retried run: outcome %q err %q, want recovered leader", r.Outcome, r.Err)
	}
	if rep.Summary.Retries != 1 || rep.Summary.Aborted != 0 {
		t.Errorf("summary retries=%d aborted=%d, want 1/0", rep.Summary.Retries, rep.Summary.Aborted)
	}
}

// TestWatchdogExhausted verifies that a run that keeps hitting the watchdog
// surfaces as an aborted error after MaxRetries reseeded attempts.
func TestWatchdogExhausted(t *testing.T) {
	g := graph.Cycle(5)
	runs := []Run{{Instance: "cycle5[0]", G: g, Homes: []int{0}, Seed: 3, Protocol: ProtoElect}}
	rep, err := ExecuteRuns(runs, Options{
		Workers:      1,
		RunTimeout:   50 * time.Millisecond,
		MaxRetries:   1,
		testProtocol: func(Run, int) sim.Protocol { return stall },
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Results[0]
	if r.Outcome != "error" || !r.Aborted {
		t.Errorf("outcome %q aborted=%v, want watchdog error", r.Outcome, r.Aborted)
	}
	if r.Attempts != 2 {
		t.Errorf("attempts: %d, want 2 (1 + MaxRetries)", r.Attempts)
	}
	if rep.Summary.Aborted != 1 || rep.Summary.Errors != 1 {
		t.Errorf("summary aborted=%d errors=%d, want 1/1", rep.Summary.Aborted, rep.Summary.Errors)
	}
}

// TestDeadlockIsNotRetried: a run whose agents all park on signs nobody
// writes ends at once with the simulator's deadlock error. That is a
// protocol failure, not a stuck schedule, so it is neither retried nor
// counted as a watchdog abort.
func TestDeadlockIsNotRetried(t *testing.T) {
	deadlock := func(a *sim.Agent) (sim.Outcome, error) {
		_, err := a.Wait(func(sim.Signs) bool { return false })
		return sim.Outcome{}, err
	}
	runs := []Run{{Instance: "cycle5[0]", G: graph.Cycle(5), Homes: []int{0}, Seed: 3, Protocol: ProtoElect}}
	start := time.Now()
	rep, err := ExecuteRuns(runs, Options{
		Workers:      1,
		MaxRetries:   2,
		testProtocol: func(Run, int) sim.Protocol { return deadlock },
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Results[0]
	if r.Outcome != "error" || r.Aborted || r.Attempts != 1 || !strings.Contains(r.Err, "deadlock") {
		t.Fatalf("run %+v, want one non-aborted attempt ending in a deadlock error", r)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadlocked run took %v to report", elapsed)
	}
}

// TestSharedCacheAcrossCampaigns: two campaigns given one
// analysiscache.Cache pay for each instance's analysis once total — the
// extraction that lets the daemon share a cache across requests.
func TestSharedCacheAcrossCampaigns(t *testing.T) {
	shared := analysiscache.New(analysiscache.Config{})
	g := graph.Cycle(6)
	runs := []Run{{Instance: "cycle6[0 2]", G: g, Homes: []int{0, 2}, Seed: 1, Protocol: ProtoElect}}
	opt := Options{Workers: 1, Cache: shared}
	if _, err := ExecuteRuns(runs, opt); err != nil {
		t.Fatal(err)
	}
	rep, err := ExecuteRuns(runs, opt)
	if err != nil {
		t.Fatal(err)
	}
	// The second campaign's only analysis is a hit on the first's entry.
	if rep.Summary.CacheHits != 1 || rep.Summary.CacheMisses != 0 {
		t.Errorf("second campaign hits/misses = %d/%d, want 1/0 via the shared cache",
			rep.Summary.CacheHits, rep.Summary.CacheMisses)
	}
	if s := shared.Stats(); s.Misses != 1 {
		t.Errorf("shared cache computed %d analyses across two campaigns, want 1", s.Misses)
	}
	if !rep.Results[0].CacheHit {
		t.Error("run record should mark the analysis as cached")
	}
}

// TestExecuteRunsContextCancel: cancelling mid-campaign aborts in-flight
// simulations and marks never-started runs canceled, keeping the report
// index-complete.
func TestExecuteRunsContextCancel(t *testing.T) {
	g := graph.Cycle(5)
	var runs []Run
	for seed := int64(1); seed <= 8; seed++ {
		runs = append(runs, Run{Instance: "cycle5[0]", G: g, Homes: []int{0}, Seed: seed, Protocol: ProtoElect})
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	rep, err := ExecuteRunsContext(ctx, runs, Options{
		Workers:      2,
		RunTimeout:   time.Minute, // far past the cancel: only ctx can stop the stuck runs
		MaxRetries:   -1,
		testProtocol: func(Run, int) sim.Protocol { return stall },
	})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v; in-flight runs did not abort", elapsed)
	}
	if rep == nil || len(rep.Results) != len(runs) {
		t.Fatalf("report must stay index-complete: %+v", rep)
	}
	if rep.Summary.Canceled == 0 {
		t.Errorf("summary should count canceled runs: %+v", rep.Summary)
	}
	for i, r := range rep.Results {
		if r.Outcome != "canceled" {
			t.Errorf("run %d outcome %q err %q, want canceled", i, r.Outcome, r.Err)
		}
	}
	if n := len(rep.Failures()); n != 0 {
		t.Errorf("canceled runs are not failures, got %d", n)
	}
}

func TestAnalyzeBatch(t *testing.T) {
	insts := []Instance{
		{"C6a", graph.Cycle(6), []int{0, 2}},
		{"C6b", graph.Cycle(6), []int{0, 3}},
		{"Q3", graph.Hypercube(3), []int{0, 7}},
		{"C6a-dup", graph.Cycle(6), []int{0, 2}},
	}
	got, err := AnalyzeBatch(insts, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range insts {
		want, err := elect.Analyze(in.G, in.Homes, order.Direct)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].GCD != want.GCD || !reflect.DeepEqual(got[i].Sizes, want.Sizes) {
			t.Errorf("%s: batch %v/%d vs direct %v/%d", in.Name, got[i].Sizes, got[i].GCD, want.Sizes, want.GCD)
		}
	}
	if got[0] != got[3] {
		t.Error("duplicate instances should share one cached analysis")
	}
}

func TestMixedProtocolRuns(t *testing.T) {
	g := graph.Cycle(6)
	runs := []Run{
		{Instance: "qual", G: g, Homes: []int{0, 2}, Seed: 1, Protocol: ProtoElect},
		{Instance: "quant", G: g, Homes: []int{0, 2}, Seed: 1, Protocol: ProtoQuantitative},
		{Instance: "quant-antipodal", G: g, Homes: []int{0, 3}, Seed: 1, Protocol: ProtoQuantitative},
		{Instance: "qual-antipodal", G: g, Homes: []int{0, 3}, Seed: 1, Protocol: ProtoElect},
	}
	rep, err := ExecuteRuns(runs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	wants := []string{"leader", "leader", "leader", "unsolvable"}
	for i, want := range wants {
		if rep.Results[i].Outcome != want {
			t.Errorf("run %d (%s): outcome %q, want %q", i, runs[i].Instance, rep.Results[i].Outcome, want)
		}
		if !rep.Results[i].OK {
			t.Errorf("run %d: oracle mismatch: %+v", i, rep.Results[i])
		}
	}
	// Two distinct instances, four runs: both protocols share the cache.
	if rep.Summary.CacheMisses != 2 || rep.Summary.CacheHits != 2 {
		t.Errorf("cache hits/misses: %d/%d, want 2/2", rep.Summary.CacheHits, rep.Summary.CacheMisses)
	}
}

// TestHairOrderingSharedHomes: P3 with two agents on one end and one on
// the other has classes that differ only in weight. Under the hair order
// every run must still elect the one leader the oracle predicts.
func TestHairOrderingSharedHomes(t *testing.T) {
	spec := Spec{
		Families: []FamilySpec{{Family: "path", Sizes: []int{3}, Homes: [][]int{{0, 0, 2}}}},
		Seeds:    SeedRange{From: 1, To: 20},
	}
	rep, err := Execute(spec, Options{Workers: 2, UseHairOrdering: true, AllowSharedHomes: true})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summary
	if s.Runs != 20 || s.Errors != 0 || s.Mismatches != 0 || s.Outcomes["leader"] != 20 {
		t.Fatalf("runs %d, errors %d, mismatches %d, outcomes %v; failures: %+v",
			s.Runs, s.Errors, s.Mismatches, s.Outcomes, rep.Failures())
	}
}

func TestParseFamilies(t *testing.T) {
	fams, err := ParseFamilies("cycle:9,12 ; hypercube:3;petersen", "spread", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 3 {
		t.Fatalf("families: %d, want 3", len(fams))
	}
	if fams[0].Family != "cycle" || !reflect.DeepEqual(fams[0].Sizes, []int{9, 12}) {
		t.Errorf("cycle spec wrong: %+v", fams[0])
	}
	if fams[2].Family != "petersen" || len(fams[2].Sizes) != 0 {
		t.Errorf("petersen spec wrong: %+v", fams[2])
	}
	if _, err := ParseFamilies("cycle:x", "spread", 2); err == nil {
		t.Error("bad size should fail")
	}
	// An explicit home list as the placement becomes every family's Homes.
	fams, err = ParseFamilies("star:4;cycle:6", "1, 2", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fams {
		if !reflect.DeepEqual(f.Homes, [][]int{{1, 2}}) {
			t.Errorf("%s: homes %v, want [[1 2]]", f.Family, f.Homes)
		}
	}
	if _, err := ParseFamilies("star:4", "1,x", 0); err == nil {
		t.Error("bad explicit home should fail")
	}
}

func TestParseSeedRange(t *testing.T) {
	r, err := ParseSeedRange("1..25")
	if err != nil || r.From != 1 || r.To != 25 || r.Count() != 25 {
		t.Fatalf("range: %+v err=%v", r, err)
	}
	r, err = ParseSeedRange("7")
	if err != nil || r.From != 7 || r.To != 7 || r.Count() != 1 {
		t.Fatalf("single: %+v err=%v", r, err)
	}
	if _, err := ParseSeedRange("a..b"); err == nil {
		t.Error("bad range should fail")
	}
}

func TestExpandPlacements(t *testing.T) {
	cases := []struct {
		strategy string
		r, n     int
		want     [][]int
	}{
		{"spread", 3, 12, [][]int{{0, 4, 8}}},
		{"spread", 2, 16, [][]int{{0, 8}}},
		{"adjacent", 3, 6, [][]int{{0, 1, 2}}},
		{"antipodal", 2, 10, [][]int{{0, 5}}},
		{"single", 1, 5, [][]int{{0}}},
	}
	for _, c := range cases {
		got, err := expandPlacement(c.strategy, c.r, c.n)
		if err != nil {
			t.Errorf("%s: %v", c.strategy, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s(r=%d,n=%d): %v, want %v", c.strategy, c.r, c.n, got, c.want)
		}
	}
	if _, err := expandPlacement("spread", 10, 5); err == nil {
		t.Error("r > n should fail")
	}
	if _, err := expandPlacement("bogus", 2, 5); err == nil {
		t.Error("unknown strategy should fail")
	}
}

func TestExpandErrors(t *testing.T) {
	if _, err := (Spec{
		Families: []FamilySpec{{Family: "nosuch", Sizes: []int{4}}},
		Seeds:    SeedRange{From: 1, To: 1},
	}).Expand(); err == nil {
		t.Error("unknown family should fail")
	}
	if _, err := (Spec{
		Families: []FamilySpec{{Family: "cycle", Sizes: []int{6}}},
		Seeds:    SeedRange{From: 5, To: 1},
	}).Expand(); err == nil {
		t.Error("empty seed range should fail")
	}
	if _, err := (Spec{
		Families: []FamilySpec{{Family: "cycle", Sizes: []int{6}, Homes: [][]int{{0, 9}}}},
		Seeds:    SeedRange{From: 1, To: 1},
	}).Expand(); err == nil {
		t.Error("out-of-range home should fail")
	}
}

// TestStrategyAxis crosses a small campaign with adversary scheduling
// strategies: every run executes under the serializing scheduler, invariants
// are checked per run, and the seed instances stay clean.
func TestStrategyAxis(t *testing.T) {
	spec := Spec{
		Families: []FamilySpec{
			{Family: "cycle", Sizes: []int{6}, Placement: "spread", R: 2},
			{Family: "path", Sizes: []int{5}, Placement: "adjacent", R: 2},
		},
		Seeds:      SeedRange{From: 1, To: 2},
		Protocol:   ProtoElect,
		Strategies: []string{"round-robin", "same-class", "starve"},
	}
	runs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 3; len(runs) != want {
		t.Fatalf("expanded to %d runs, want %d", len(runs), want)
	}
	var jsonl bytes.Buffer
	rep, err := ExecuteRuns(runs, Options{JSONL: &jsonl})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.InvariantViolations != 0 {
		t.Fatalf("violations on seed instances:\n%s", rep.Summary.Render())
	}
	for _, r := range rep.Results {
		if r.Strategy == "" {
			t.Fatalf("run %d lost its strategy", r.Index)
		}
		if !r.OK || r.Err != "" {
			t.Fatalf("run %+v not clean", r)
		}
	}
	// The strategy must round-trip through the JSONL stream.
	var rec RunResult
	if err := json.Unmarshal(jsonl.Bytes()[:bytes.IndexByte(jsonl.Bytes(), '\n')], &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Strategy == "" {
		t.Fatal("JSONL record lost the strategy field")
	}
}

// TestStrategyAxisCatchesViolations drives the self-crowning protocol
// through every strategy and expects the per-run invariant checker to flag
// multiple leaders on every run, each record carrying a replay bundle whose
// schedule decodes.
func TestStrategyAxisCatchesViolations(t *testing.T) {
	spec := Spec{
		Families:   []FamilySpec{{Family: "cycle", Sizes: []int{6}, Placement: "spread", R: 2}},
		Seeds:      SeedRange{From: 1, To: 2},
		Protocol:   ProtoElect,
		Strategies: adversary.Strategies(),
	}
	runs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Everyone wakes: a self-crowning agent never visits a sleeper, so a
	// seeded wake subset would end in a deadlock rather than two leaders.
	opt := Options{
		WakeAll:      true,
		testProtocol: func(Run, int) sim.Protocol { return selfCrowning },
	}
	rep, err := ExecuteRuns(runs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.InvariantViolations != len(runs) {
		t.Fatalf("want %d violating runs, got %d", len(runs), rep.Summary.InvariantViolations)
	}
	if len(rep.Failures()) != len(runs) {
		t.Fatalf("Failures() missed violating runs: %d", len(rep.Failures()))
	}
	if !strings.Contains(rep.Summary.Render(), "INVARIANT VIOLATIONS") {
		t.Fatal("summary does not surface the violations")
	}
	for _, r := range rep.Results {
		found := false
		for _, v := range r.Violations {
			found = found || v.Code == elect.VioMultipleLeaders
		}
		if !found {
			t.Fatalf("[%s seed %d] missing %s: %v", r.Strategy, r.Seed, elect.VioMultipleLeaders, r.Violations)
		}
		if r.Replay == nil {
			t.Fatalf("[%s seed %d] violating run has no replay bundle", r.Strategy, r.Seed)
		}
		if _, err := r.Replay.Decode(); err != nil {
			t.Fatalf("[%s seed %d] undecodable schedule: %v", r.Strategy, r.Seed, err)
		}
	}
}

// TestExpandRejectsUnknownStrategy keeps CLI typos at expansion time.
func TestExpandRejectsUnknownStrategy(t *testing.T) {
	spec := Spec{
		Families:   []FamilySpec{{Family: "cycle", Sizes: []int{6}}},
		Seeds:      SeedRange{From: 1, To: 1},
		Strategies: []string{"nope"},
	}
	if _, err := spec.Expand(); err == nil {
		t.Fatal("want error for unknown strategy")
	}
}

// TestParseStrategies covers the CLI syntax.
func TestParseStrategies(t *testing.T) {
	if got, err := ParseStrategies(""); err != nil || got != nil {
		t.Fatalf("empty: %v %v", got, err)
	}
	got, err := ParseStrategies("all")
	if err != nil || len(got) < 5 {
		t.Fatalf("all: %v %v", got, err)
	}
	if got, err := ParseStrategies("random, lockstep"); err != nil || len(got) != 2 {
		t.Fatalf("pair: %v %v", got, err)
	}
	if _, err := ParseStrategies("random,bogus"); err == nil {
		t.Fatal("want error for bogus strategy")
	}
}

// TestFaultAxis crosses the campaign with fault strategies: the expansion
// defaults to the random scheduler (fault injection needs the turnstile),
// every fault run carries its manifest through the JSONL stream, the
// fault-aware invariants stay clean, and the summary aggregates the plane.
func TestFaultAxis(t *testing.T) {
	spec := Spec{
		Families: []FamilySpec{
			{Family: "star", Sizes: []int{4}, Homes: [][]int{{1, 2}}},
			{Family: "cycle", Sizes: []int{6}, Placement: "spread", R: 3},
		},
		Seeds:    SeedRange{From: 1, To: 3},
		Protocol: ProtoElect,
		Faults:   []string{"crash-frontrunner", "stale-reads"},
	}
	runs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 3; len(runs) != want {
		t.Fatalf("expanded to %d runs, want %d", len(runs), want)
	}
	for _, r := range runs {
		if r.Strategy != "random" {
			t.Fatalf("fault run did not default to the random scheduler: %+v", r)
		}
		if r.Fault == "" {
			t.Fatalf("run lost its fault strategy: %+v", r)
		}
	}
	var jsonl bytes.Buffer
	rep, err := ExecuteRuns(runs, Options{JSONL: &jsonl})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.InvariantViolations != 0 {
		t.Fatalf("fault sweep broke safety:\n%s", rep.Summary.Render())
	}
	if rep.Summary.FaultRuns != len(runs) {
		t.Fatalf("FaultRuns = %d, want %d", rep.Summary.FaultRuns, len(runs))
	}
	if rep.Summary.CrashedAgents == 0 {
		t.Fatal("no crashes across the whole fault sweep — injection not wired")
	}
	for _, r := range rep.Results {
		if r.Fault != "" && r.FaultPlan == "" {
			t.Fatalf("run %d (%s) lost its fault plan", r.Index, r.Fault)
		}
	}
	if !strings.Contains(rep.Summary.Render(), "fault plane:") {
		t.Fatal("summary does not surface the fault plane")
	}
	// The manifest must round-trip through JSONL.
	var rec RunResult
	if err := json.Unmarshal(jsonl.Bytes()[:bytes.IndexByte(jsonl.Bytes(), '\n')], &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Fault == "" {
		t.Fatal("JSONL record lost the fault field")
	}
}

// TestExpandRejectsUnknownFault keeps CLI typos at expansion time.
func TestExpandRejectsUnknownFault(t *testing.T) {
	spec := Spec{
		Families: []FamilySpec{{Family: "cycle", Sizes: []int{6}}},
		Seeds:    SeedRange{From: 1, To: 1},
		Faults:   []string{"meteor-strike"},
	}
	if _, err := spec.Expand(); err == nil {
		t.Fatal("want error for unknown fault strategy")
	}
}

// TestParseFaults covers the CLI fault syntax.
func TestParseFaults(t *testing.T) {
	if got, err := ParseFaults(""); err != nil || got != nil {
		t.Fatalf("empty: %v %v", got, err)
	}
	got, err := ParseFaults("all")
	if err != nil || len(got) != 5 {
		t.Fatalf("all: %v %v", got, err)
	}
	if got, err := ParseFaults("stale-reads, crash-lockholder"); err != nil || len(got) != 2 {
		t.Fatalf("pair: %v %v", got, err)
	}
	if _, err := ParseFaults("crash-frontrunner,bogus"); err == nil {
		t.Fatal("want error for bogus fault")
	}
}
