package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/adversary"
	"repro/internal/elect"
	"repro/internal/iso"
	"repro/internal/telemetry"
)

// RunResult is the per-run record of a campaign, one JSONL line per run.
// It holds two kinds of fields. The outcome fields are deterministic per
// (spec, seed) at any worker count. The observational fields (CacheHit,
// ElapsedMS, RequestID) record how the run was executed; Deterministic
// zeroes them.
type RunResult struct {
	// Index is the run's position in the expanded work list.
	Index    int    `json:"index"`
	Instance string `json:"instance"`
	Protocol string `json:"protocol"`
	N        int    `json:"n"`
	M        int    `json:"m"`
	R        int    `json:"r"`
	Seed     int64  `json:"seed"`
	// Strategy is the adversary scheduling strategy that drove the run
	// (empty for free-running simulation).
	Strategy string `json:"strategy,omitempty"`
	// Fault names the injected fault strategy (empty for fault-free runs).
	Fault string `json:"fault,omitempty"`
	// Backend names the runtime backend that executed the run (empty for
	// the classic simulator path; see internal/runtime).
	Backend string `json:"backend,omitempty"`
	// Attempts counts executions including watchdog retries (1 = no retry).
	Attempts int `json:"attempts"`
	// Outcome is "leader", "unsolvable", "mixed", or "error".
	Outcome  string `json:"outcome"`
	Moves    int64  `json:"moves"`
	Accesses int64  `json:"accesses"`
	// Ratio is Moves / (r·|E|), the Theorem 3.1 quantity.
	Ratio float64 `json:"ratio"`
	// Analysis fields (from the shared cache): ordered class sizes, gcd,
	// and whether this run's analysis was served from cache.
	Sizes    []int `json:"sizes,omitempty"`
	GCD      int   `json:"gcd,omitempty"`
	CacheHit bool  `json:"cache_hit"`
	// Expected is the oracle-predicted outcome ("" when the oracle does not
	// apply to the protocol); OK reports Outcome == Expected.
	Expected string `json:"expected,omitempty"`
	OK       bool   `json:"ok"`
	// Violations lists protocol-invariant breaches found by
	// elect.CheckInvariants (strategy-scheduled runs only; empty = clean).
	// Fault runs are checked against the fault-aware contract.
	Violations []elect.Violation `json:"violations,omitempty"`
	// Fault manifest of the final attempt: crashed agents, abandoned-lock
	// takeovers, injected events, and the base64 fault plan
	// (faults.DecodePlanString) for deterministic replay.
	Crashed     int    `json:"crashed,omitempty"`
	Takeovers   int64  `json:"takeovers,omitempty"`
	FaultEvents int    `json:"fault_events,omitempty"`
	FaultPlan   string `json:"fault_plan,omitempty"`
	// Replay is the replay bundle of a scheduled run with at least one
	// violation: the instance, the final attempt's seed, the decision log
	// and the fault plan, which cmd/elect -replay re-executes bit-for-bit.
	// Nil on clean runs.
	Replay *adversary.ScheduleFile `json:"replay,omitempty"`
	// ElapsedMS is the run's wall-clock time (nondeterministic).
	ElapsedMS float64 `json:"elapsed_ms"`
	Err       string  `json:"err,omitempty"`
	// Aborted reports that the final attempt still hit the watchdog.
	Aborted bool `json:"aborted,omitempty"`
	// Per-phase counters of the final attempt, keyed by phase name, with
	// zero phases omitted (present when Options.Telemetry; deterministic
	// per seed, like Moves).
	PhaseMoves    map[string]int64 `json:"phase_moves,omitempty"`
	PhaseAccesses map[string]int64 `json:"phase_accesses,omitempty"`
	PhaseWrites   map[string]int64 `json:"phase_writes,omitempty"`
	PhaseErases   map[string]int64 `json:"phase_erases,omitempty"`
	// RequestID is the originating HTTP request's ID when the campaign ran
	// inside a traced daemon request (telemetry.WithRequestID), so JSONL
	// records and streamed campaign lines correlate with access logs.
	RequestID string `json:"request_id,omitempty"`
}

// Deterministic returns r with its observational fields zeroed: CacheHit
// (which worker won the analysis cache's singleflight race), ElapsedMS
// and RequestID. What remains is a function of (spec, seed), so two
// executions of one spec must agree on it record for record.
func (r RunResult) Deterministic() RunResult {
	r.CacheHit = false
	r.ElapsedMS = 0
	r.RequestID = ""
	return r
}

// phaseMap converts a per-phase counter array to its name-keyed JSON
// form, omitting zero phases (nil when all are zero).
func phaseMap(a [telemetry.NumPhases]int64) map[string]int64 {
	var out map[string]int64
	for p, v := range a {
		if v != 0 {
			if out == nil {
				out = make(map[string]int64)
			}
			out[telemetry.Phase(p).String()] = v
		}
	}
	return out
}

// Summary aggregates a campaign. summarize computes it from the campaign's
// results, so every field but the pool-level ones (Workers, the cache
// statistics, AnalysisMS, WallMS and what derives from them) is a function
// of the run records.
type Summary struct {
	Runs     int            `json:"runs"`
	Workers  int            `json:"workers"`
	Outcomes map[string]int `json:"outcomes"`
	// Mismatches counts runs whose outcome contradicts the oracle
	// prediction; Errors counts runs that exhausted retries with an error.
	Mismatches int `json:"mismatches"`
	Errors     int `json:"errors"`
	// Retries counts extra attempts beyond the first, across all runs;
	// Aborted counts runs whose final attempt still hit the watchdog.
	Retries int `json:"retries"`
	Aborted int `json:"aborted"`
	// Canceled counts runs stopped (or never started) by context
	// cancellation — a dropped server request or an expired drain. They are
	// reported separately from Errors: cancellation is an environment
	// decision, not a protocol failure.
	Canceled int `json:"canceled,omitempty"`
	// InvariantViolations counts strategy-scheduled runs with at least one
	// protocol-invariant breach (see RunResult.Violations).
	InvariantViolations int `json:"invariant_violations"`
	// Fault-plane aggregates over the runs that had a fault strategy:
	// run count, total crashed agents, total lock takeovers, total injected
	// events, and percentiles of per-run crash counts.
	FaultRuns     int   `json:"fault_runs,omitempty"`
	CrashedAgents int   `json:"crashed_agents,omitempty"`
	Takeovers     int64 `json:"takeovers,omitempty"`
	FaultEvents   int   `json:"fault_events,omitempty"`
	CrashedP50    int64 `json:"crashed_p50,omitempty"`
	CrashedP90    int64 `json:"crashed_p90,omitempty"`
	// FaultErrors counts fault runs that ended in a run error (typically a
	// crash-induced schedule deadlock). With faults injected these are
	// expected liveness losses, reported separately and excluded from
	// Errors — only invariant violations fail a fault run.
	FaultErrors int `json:"fault_errors,omitempty"`
	// Move statistics and the Theorem 3.1 ratio envelope.
	MovesP50 int64 `json:"moves_p50"`
	MovesP90 int64 `json:"moves_p90"`
	MovesP99 int64 `json:"moves_p99"`
	// AccessP50/90/99 are whiteboard-access percentiles.
	AccessP50 int64   `json:"accesses_p50"`
	AccessP90 int64   `json:"accesses_p90"`
	AccessP99 int64   `json:"accesses_p99"`
	RatioP50  float64 `json:"ratio_p50"`
	RatioP90  float64 `json:"ratio_p90"`
	RatioMax  float64 `json:"ratio_max"`
	// RatioBound is the constant c the campaign asserts moves ≤ c·r·|E|
	// against; BoundViolations counts runs exceeding it.
	RatioBound      float64 `json:"ratio_bound"`
	BoundViolations int     `json:"bound_violations"`
	// Analysis cache effectiveness. AnalysisMS is the total wall-clock time
	// spent inside elect.Analyze across cache misses (nondeterministic).
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	AnalysisMS   float64 `json:"analysis_ms"`
	// WallMS is the campaign's wall-clock time; SerialMS sums the per-run
	// times (what one worker would have paid); SpeedupEst is their ratio.
	WallMS     float64 `json:"wall_ms"`
	SerialMS   float64 `json:"serial_ms"`
	SpeedupEst float64 `json:"speedup_est"`
	// Phases aggregates the per-phase counters across non-error runs,
	// keyed by phase name (present when Options.Telemetry).
	Phases map[string]PhaseStat `json:"phases,omitempty"`
	// IsoSearch is the delta of the process-global canonical-search
	// counters over the campaign (present when Options.Telemetry;
	// concurrent non-campaign iso work in the same process would be
	// included).
	IsoSearch *iso.SearchStats `json:"iso_search,omitempty"`
	// TopViolations ranks invariant-violation signatures
	// ("code|instance|strategy") by their exact counts, highest first,
	// capped at ten; InvariantViolations counts every violating run.
	TopViolations []ViolationCount `json:"top_violations,omitempty"`
}

// PhaseStat aggregates one protocol phase across a campaign: counter
// totals over all non-error runs, and move percentiles over the runs
// that entered the phase.
type PhaseStat struct {
	Moves    int64 `json:"moves"`
	Accesses int64 `json:"accesses"`
	Writes   int64 `json:"writes"`
	Erases   int64 `json:"erases"`
	MovesP50 int64 `json:"moves_p50"`
	MovesP90 int64 `json:"moves_p90"`
}

// Report is the full outcome of a campaign: per-run results in work-list
// order plus the summary computed from them.
type Report struct {
	Results []RunResult `json:"results,omitempty"`
	Summary Summary     `json:"summary"`
}

// Failures returns the results that errored, contradicted the oracle, or
// broke a protocol invariant. Canceled runs are not failures. Fault-injected
// runs are judged by the fault-aware invariants alone: a crash-induced run
// error (deadlock, no verdict among survivors) is an expected liveness
// loss, not a failure.
func (r *Report) Failures() []RunResult {
	var out []RunResult
	for _, res := range r.Results {
		if res.Outcome == "canceled" {
			continue
		}
		failed := !res.OK || len(res.Violations) > 0
		if res.Fault == "" {
			failed = failed || res.Err != ""
		}
		if failed {
			out = append(out, res)
		}
	}
	return out
}

// jsonlWriter streams one JSON record per line, serialized across workers.
// Records are written in completion order; consumers needing work-list
// order sort by the index field.
type jsonlWriter struct {
	mu  sync.Mutex
	w   io.Writer
	enc *json.Encoder
	err error
}

func newJSONLWriter(w io.Writer) *jsonlWriter {
	if w == nil {
		return nil
	}
	return &jsonlWriter{w: w, enc: json.NewEncoder(w)}
}

func (jw *jsonlWriter) write(r RunResult) {
	if jw == nil {
		return
	}
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if jw.err == nil {
		jw.err = jw.enc.Encode(r)
	}
}

func pctInt(xs []int64, p int) int64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]int64(nil), xs...)
	sort.Slice(ys, func(i, j int) bool { return ys[i] < ys[j] })
	return ys[pctIndex(len(ys), p)]
}

func pctFloat(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	return ys[pctIndex(len(ys), p)]
}

// pctIndex is the nearest-rank percentile index.
func pctIndex(n, p int) int {
	i := (n*p + 99) / 100
	if i < 1 {
		i = 1
	}
	if i > n {
		i = n
	}
	return i - 1
}

// Render prints the summary as a human-readable block.
func (s Summary) Render() string {
	out := fmt.Sprintf("campaign: %d runs, %d workers, wall %.0fms (serial %.0fms, ≈%.1fx)\n",
		s.Runs, s.Workers, s.WallMS, s.SerialMS, s.SpeedupEst)
	keys := make([]string, 0, len(s.Outcomes))
	for k := range s.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out += "  outcomes:"
	for _, k := range keys {
		out += fmt.Sprintf(" %s=%d", k, s.Outcomes[k])
	}
	out += fmt.Sprintf("\n  oracle mismatches: %d, errors: %d, retries: %d, watchdog-aborted: %d\n",
		s.Mismatches, s.Errors, s.Retries, s.Aborted)
	if s.Canceled > 0 {
		out += fmt.Sprintf("  canceled: %d runs\n", s.Canceled)
	}
	if s.InvariantViolations > 0 {
		out += fmt.Sprintf("  INVARIANT VIOLATIONS: %d runs\n", s.InvariantViolations)
	}
	for _, v := range s.TopViolations {
		out += fmt.Sprintf("    %s: %d\n", v.Signature, v.Count)
	}
	if s.FaultRuns > 0 {
		out += fmt.Sprintf("  fault plane: %d fault runs, %d events injected, %d agents crashed (p50 %d, p90 %d), %d lock takeovers, %d crash-induced run errors\n",
			s.FaultRuns, s.FaultEvents, s.CrashedAgents, s.CrashedP50, s.CrashedP90, s.Takeovers, s.FaultErrors)
	}
	out += fmt.Sprintf("  moves p50/p90/p99: %d/%d/%d, accesses p50/p90/p99: %d/%d/%d\n",
		s.MovesP50, s.MovesP90, s.MovesP99, s.AccessP50, s.AccessP90, s.AccessP99)
	out += fmt.Sprintf("  moves/(r·|E|) p50/p90/max: %.1f/%.1f/%.1f (bound %.0f, violations %d)\n",
		s.RatioP50, s.RatioP90, s.RatioMax, s.RatioBound, s.BoundViolations)
	out += fmt.Sprintf("  analysis cache: %d hits / %d misses (hit rate %.1f%%), %.0fms analyzing\n",
		s.CacheHits, s.CacheMisses, 100*s.CacheHitRate, s.AnalysisMS)
	if len(s.Phases) > 0 {
		// Phase taxonomy order (the order the protocol runs them), not
		// alphabetical.
		for _, name := range telemetry.PhaseNames() {
			st, ok := s.Phases[name]
			if !ok {
				continue
			}
			out += fmt.Sprintf("  phase %-12s moves=%d (p50 %d, p90 %d) accesses=%d writes=%d erases=%d\n",
				name, st.Moves, st.MovesP50, st.MovesP90, st.Accesses, st.Writes, st.Erases)
		}
	}
	if s.IsoSearch != nil {
		out += fmt.Sprintf("  iso search: %d searches, %d nodes, %d leaves, prunes orbit=%d prefix=%d\n",
			s.IsoSearch.Searches, s.IsoSearch.Nodes, s.IsoSearch.Leaves,
			s.IsoSearch.OrbitPrunes, s.IsoSearch.PrefixPrunes)
	}
	return out
}
