package campaign

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/iso"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestCampaignTelemetry runs a small telemetry-enabled campaign and
// checks the full per-phase chain: RunResult maps, Summary aggregation,
// live metrics, and the worker timeline.
func TestCampaignTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	var timeline bytes.Buffer
	runs := []Run{
		{Instance: "cycle6[0 2]", G: graph.Cycle(6), Homes: []int{0, 2}, Seed: 1, Protocol: ProtoElect},
		// Asymmetric spacing (2,3,4) so the placement is rigid and the
		// election succeeds.
		{Instance: "cycle9[0 2 5]", G: graph.Cycle(9), Homes: []int{0, 2, 5}, Seed: 2, Protocol: ProtoElect},
	}
	rep, err := ExecuteRuns(runs, Options{Workers: 2, Metrics: reg, Timeline: &timeline})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if r.Err != "" {
			t.Fatalf("run %s errored: %s", r.Instance, r.Err)
		}
		if len(r.PhaseMoves) == 0 {
			t.Fatalf("run %s has no phase moves", r.Instance)
		}
		if r.PhaseMoves["mapdraw"] <= 0 {
			t.Errorf("run %s: mapdraw moves = %d, want > 0", r.Instance, r.PhaseMoves["mapdraw"])
		}
		// Phase counts must partition the run's totals exactly.
		var sumMoves, sumAcc int64
		for _, v := range r.PhaseMoves {
			sumMoves += v
		}
		for _, v := range r.PhaseAccesses {
			sumAcc += v
		}
		if sumMoves != r.Moves || sumAcc != r.Accesses {
			t.Errorf("run %s: phase sums %d/%d != totals %d/%d",
				r.Instance, sumMoves, sumAcc, r.Moves, r.Accesses)
		}
	}

	s := rep.Summary
	if len(s.Phases) == 0 || s.Phases["mapdraw"].Moves <= 0 {
		t.Errorf("summary phases missing mapdraw: %+v", s.Phases)
	}
	wantMapdraw := rep.Results[0].PhaseMoves["mapdraw"] + rep.Results[1].PhaseMoves["mapdraw"]
	if s.Phases["mapdraw"].Moves != wantMapdraw {
		t.Errorf("summary mapdraw moves = %d, want %d", s.Phases["mapdraw"].Moves, wantMapdraw)
	}
	if s.IsoSearch == nil || s.IsoSearch.Searches <= 0 {
		t.Errorf("summary iso search delta missing or empty: %+v", s.IsoSearch)
	}
	if !strings.Contains(s.Render(), "phase mapdraw") || !strings.Contains(s.Render(), "iso search:") {
		t.Errorf("Render lacks telemetry lines:\n%s", s.Render())
	}

	if got := reg.Counter("campaign_runs_total").Value(); got != 2 {
		t.Errorf("campaign_runs_total = %d, want 2", got)
	}
	if got := reg.Counter("campaign_outcome_leader").Value(); got != 2 {
		t.Errorf("campaign_outcome_leader = %d, want 2", got)
	}
	if reg.Counter("campaign_phase_moves_mapdraw").Value() != wantMapdraw {
		t.Errorf("metrics mapdraw moves = %d, want %d",
			reg.Counter("campaign_phase_moves_mapdraw").Value(), wantMapdraw)
	}
	if reg.Gauge("campaign_inflight").Value() != 0 {
		t.Errorf("campaign_inflight = %d after completion, want 0", reg.Gauge("campaign_inflight").Value())
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(timeline.Bytes(), &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	var spans, workerNames int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			spans++
		case "M":
			if args, ok := ev["args"].(map[string]any); ok {
				if n, _ := args["name"].(string); strings.HasPrefix(n, "worker ") {
					workerNames++
				}
			}
		}
	}
	if spans != 2 {
		t.Errorf("timeline has %d run spans, want 2", spans)
	}
	if workerNames != 2 {
		t.Errorf("timeline has %d worker tracks, want 2", workerNames)
	}
}

// TestCampaignForcedTraceDrops wires a tiny trace buffer to a slow sink
// so the buffered tracer must drop events, and checks the count surfaces
// in RunResult and the Summary.
func TestCampaignForcedTraceDrops(t *testing.T) {
	chatty := func(a *sim.Agent) (sim.Outcome, error) {
		// ~200 distinct-tag writes: each emits one trace event while the
		// 1-slot buffer drains at 1ms per event.
		err := a.Access(func(b *sim.Board) {
			for i := 0; i < 200; i++ {
				b.Write("tag" + strconv.Itoa(i))
			}
		})
		if err != nil {
			return sim.Outcome{}, err
		}
		return sim.Outcome{Role: sim.RoleLeader, Leader: a.Color()}, nil
	}
	runs := []Run{{Instance: "cycle3[0]", G: graph.Cycle(3), Homes: []int{0}, Seed: 1, Protocol: ProtoElect}}
	rep, err := ExecuteRuns(runs, Options{
		Workers:      1,
		NoAnalysis:   true,
		TraceSink:    func(sim.Event) { time.Sleep(time.Millisecond) },
		TraceBuffer:  1,
		testProtocol: func(Run, int) sim.Protocol { return chatty },
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Results[0]
	if r.Err != "" {
		t.Fatalf("run errored: %s", r.Err)
	}
	if r.TraceDropped <= 0 {
		t.Errorf("TraceDropped = %d, want > 0 (1-slot buffer, 1ms sink, 200 events)", r.TraceDropped)
	}
	if rep.Summary.TraceDropped != r.TraceDropped {
		t.Errorf("summary dropped %d != run dropped %d", rep.Summary.TraceDropped, r.TraceDropped)
	}
	if !strings.Contains(rep.Summary.Render(), "trace events dropped:") {
		t.Errorf("Render lacks the dropped-events line:\n%s", rep.Summary.Render())
	}
}

func TestPctIndexEdgeCases(t *testing.T) {
	// Nearest-rank definition: index of ceil(n·p/100) clamped to [1, n],
	// zero-based. Documented edge cases: empty and single-element inputs.
	if got := pctInt(nil, 50); got != 0 {
		t.Errorf("pctInt(nil) = %d, want 0", got)
	}
	if got := pctFloat(nil, 90); got != 0 {
		t.Errorf("pctFloat(nil) = %v, want 0", got)
	}
	one := []int64{42}
	for _, p := range []int{0, 1, 50, 99, 100} {
		if got := pctInt(one, p); got != 42 {
			t.Errorf("pctInt([42], %d) = %d, want 42", p, got)
		}
	}
	two := []int64{10, 20}
	if got := pctInt(two, 50); got != 10 {
		t.Errorf("p50 of [10 20] = %d, want 10", got)
	}
	if got := pctInt(two, 90); got != 20 {
		t.Errorf("p90 of [10 20] = %d, want 20", got)
	}
	// p=0 clamps up to the minimum, p=100 is the maximum.
	ten := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := pctInt(ten, 0); got != 1 {
		t.Errorf("p0 = %d, want 1", got)
	}
	if got := pctInt(ten, 100); got != 10 {
		t.Errorf("p100 = %d, want 10", got)
	}
	if got := pctInt(ten, 50); got != 5 {
		t.Errorf("p50 of 1..10 = %d, want 5 (nearest rank)", got)
	}
	// Unsorted input must not matter.
	if got := pctInt([]int64{9, 1, 5}, 50); got != 5 {
		t.Errorf("p50 of unsorted = %d, want 5", got)
	}
}

// TestSummaryRenderGolden pins the exact Render format — both the base
// block and the telemetry lines — so downstream log scrapers don't break
// silently.
func TestSummaryRenderGolden(t *testing.T) {
	s := Summary{
		Runs: 4, Workers: 2,
		Outcomes:   map[string]int{"leader": 3, "unsolvable": 1},
		Mismatches: 0, Errors: 0, Retries: 1, Aborted: 0,
		MovesP50: 100, MovesP90: 200, MovesP99: 250,
		AccessP50: 50, AccessP90: 80, AccessP99: 90,
		RatioP50: 1.5, RatioP90: 2.5, RatioMax: 3.0,
		RatioBound: 40, BoundViolations: 0,
		CacheHits: 3, CacheMisses: 1, CacheHitRate: 0.75, AnalysisMS: 12,
		WallMS: 100, SerialMS: 180, SpeedupEst: 1.8,
		Phases: map[string]PhaseStat{
			"mapdraw":  {Moves: 300, Accesses: 120, Writes: 40, Erases: 0, MovesP50: 70, MovesP90: 90},
			"announce": {Moves: 100, Accesses: 44, Writes: 12, Erases: 2, MovesP50: 25, MovesP90: 30},
		},
		IsoSearch:    &iso.SearchStats{Searches: 8, Nodes: 120, Leaves: 30, OrbitPrunes: 5, PrefixPrunes: 9},
		TraceDropped: 7,
	}
	want := strings.Join([]string{
		"campaign: 4 runs, 2 workers, wall 100ms (serial 180ms, ≈1.8x)",
		"  outcomes: leader=3 unsolvable=1",
		"  oracle mismatches: 0, errors: 0, retries: 1, watchdog-aborted: 0",
		"  moves p50/p90/p99: 100/200/250, accesses p50/p90/p99: 50/80/90",
		"  moves/(r·|E|) p50/p90/max: 1.5/2.5/3.0 (bound 40, violations 0)",
		"  analysis cache: 3 hits / 1 misses (hit rate 75.0%), 12ms analyzing",
		"  phase mapdraw      moves=300 (p50 70, p90 90) accesses=120 writes=40 erases=0",
		"  phase announce     moves=100 (p50 25, p90 30) accesses=44 writes=12 erases=2",
		"  iso search: 8 searches, 120 nodes, 30 leaves, prunes orbit=5 prefix=9",
		"  trace events dropped: 7",
		"",
	}, "\n")
	if got := s.Render(); got != want {
		t.Errorf("Render drifted.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRunResultJSONLRoundTrip checks the per-phase fields survive the
// JSONL writer unchanged.
func TestRunResultJSONLRoundTrip(t *testing.T) {
	in := RunResult{
		Index: 3, Instance: "cycle6[0 2]", Protocol: "elect",
		N: 6, M: 6, R: 2, Seed: 9, Attempts: 1,
		Outcome: "leader", Moves: 120, Accesses: 60, Ratio: 10,
		OK: true,
		PhaseMoves: map[string]int64{
			"mapdraw": 80, "agent-reduce": 30, "announce": 10,
		},
		PhaseAccesses: map[string]int64{"mapdraw": 40, "announce": 20},
		PhaseWrites:   map[string]int64{"mapdraw": 12},
		PhaseErases:   map[string]int64{"agent-reduce": 2},
		TraceDropped:  5,
	}
	var buf bytes.Buffer
	jw := newJSONLWriter(&buf)
	jw.write(in)
	if jw.err != nil {
		t.Fatal(jw.err)
	}
	var out RunResult
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("bad JSONL line: %v\n%s", err, buf.String())
	}
	if out.Index != in.Index || out.Outcome != in.Outcome || out.TraceDropped != in.TraceDropped {
		t.Errorf("scalar fields drifted: %+v", out)
	}
	for name, v := range in.PhaseMoves {
		if out.PhaseMoves[name] != v {
			t.Errorf("phase_moves[%s] = %d, want %d", name, out.PhaseMoves[name], v)
		}
	}
	if len(out.PhaseMoves) != len(in.PhaseMoves) ||
		len(out.PhaseAccesses) != len(in.PhaseAccesses) ||
		len(out.PhaseWrites) != len(in.PhaseWrites) ||
		len(out.PhaseErases) != len(in.PhaseErases) {
		t.Errorf("phase map sizes drifted: %+v", out)
	}
}
