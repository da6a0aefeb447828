// Package campaign executes multi-seed election campaigns: a declarative
// spec (graph families × sizes × home placements × seed ranges × protocol)
// is expanded into a deterministic work list and driven through a bounded
// worker pool with per-run watchdog timeouts, bounded retry of aborted runs
// under a fresh seed offset, and a memoized analysis cache keyed by the
// canonical (graph, homes) form — so the expensive centralized analysis
// (class ordering, Cayley recognition, the Theorem 2.1 oracle) is computed
// once per instance instead of once per seed.
//
// Results stream to JSONL as runs complete. Once the pool drains, a Summary
// computed from the results reports outcome counts, exact move/access
// percentiles against the Theorem 3.1 r·|E| bound, oracle mismatches,
// retry/watchdog counts, cache hit rate and wall-clock vs serial time. The
// experiment harness (internal/exp), the root benchmarks and cmd/campaign
// all execute through this engine.
//
// Execution is deterministic per (spec, seed) modulo worker interleaving:
// the work list order is fixed by the spec, each run's simulation is fully
// seeded, and per-run records carry their work-list index so sorted JSONL
// output is reproducible run-to-run.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/adversary"
	"repro/internal/analysiscache"
	"repro/internal/elect"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/iso"
	"repro/internal/order"
	rtbackend "repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/zoo"
)

// Options tunes campaign execution. The zero value is usable: GOMAXPROCS
// workers, a 60s watchdog, 2 retries of watchdog-aborted runs, ratio bound
// 40.
type Options struct {
	// Workers bounds the worker pool (default GOMAXPROCS).
	Workers int
	// RunTimeout is the per-run watchdog: a simulation that exceeds it is
	// aborted (default 60s).
	RunTimeout time.Duration
	// MaxRetries bounds how many times an aborted run is re-executed under
	// a fresh seed (default 2; negative disables retries).
	MaxRetries int
	// MaxDelay, WakeAll, UseHairOrdering and AllowSharedHomes are passed
	// through to the simulation (see sim.Config / repro.RunConfig).
	MaxDelay         time.Duration
	WakeAll          bool
	UseHairOrdering  bool
	AllowSharedHomes bool
	// CayleyFallback sets CayleyOptions.FallbackToElect for ProtoCayley.
	CayleyFallback bool
	// RatioBound is the constant c the summary asserts moves ≤ c·r·|E|
	// against (default 40, matching the experiment suite).
	RatioBound float64
	// NoAnalysis skips the centralized analysis entirely: no cache, no
	// oracle prediction, every run trivially OK. Used by benchmarks that
	// measure pure protocol runtime.
	NoAnalysis bool
	// Cache, when set, is the shared analysis cache to memoize through —
	// the election daemon passes its process-wide cache here so campaign
	// requests coalesce with everything else the server analyzes. Nil
	// builds a private bounded cache for this campaign.
	Cache *analysiscache.Cache
	// CacheMaxBytes bounds the private cache built when Cache is nil
	// (0 = analysiscache.DefaultMaxBytes; negative = unbounded).
	CacheMaxBytes int64
	// JSONL, when set, receives one JSON record per completed run.
	JSONL io.Writer

	// Telemetry enables per-run collection: each run gets a telemetry.Run,
	// its per-phase move/access/write/erase totals land in RunResult, the
	// Summary aggregates phase percentiles and the campaign's iso
	// search-tree counter delta. Setting Metrics or Timeline implies it.
	Telemetry bool
	// Metrics, when set, receives live campaign data as each run ends:
	// run, outcome, retry, violation and per-phase counters, and the
	// campaign_run_moves, campaign_run_accesses and
	// campaign_run_ratio_milli histograms — serve it at /debug/metrics for
	// a live view of a long campaign.
	Metrics *telemetry.Registry
	// Timeline, when set, receives the campaign's worker-span timeline as
	// Chrome trace_event JSON (one track per worker, one span per run)
	// after the campaign completes; open it in Perfetto.
	Timeline io.Writer

	// testProtocol, when set (tests only), overrides the protocol for each
	// attempt — used to exercise the watchdog/retry path deterministically.
	testProtocol func(run Run, attempt int) sim.Protocol
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.RunTimeout <= 0 {
		o.RunTimeout = 60 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 2
	} else if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.RatioBound == 0 {
		o.RatioBound = 40
	}
	if o.Metrics != nil || o.Timeline != nil {
		o.Telemetry = true
	}
	return o
}

// retrySeedOffset is added to the run seed per retry attempt, so a stuck
// adversary schedule is not replayed verbatim.
const retrySeedOffset = 1_000_003

// protoInfo is a constructed protocol plus its model requirements.
type protoInfo struct {
	p     sim.Protocol
	quant bool
}

// protocolFor constructs the protocol for a kind, once per campaign. Each
// protocol the elect package returns keeps no state between agents, so it
// is safe to share across concurrent runs.
func protocolFor(kind ProtocolKind, opt Options) (protoInfo, error) {
	ord := order.Direct
	if opt.UseHairOrdering {
		ord = order.Hairs
	}
	switch kind {
	case ProtoElect:
		return protoInfo{p: elect.Elect(elect.Options{Ordering: ord})}, nil
	case ProtoCayley:
		return protoInfo{p: elect.CayleyElect(elect.CayleyOptions{
			Ordering: ord, FallbackToElect: opt.CayleyFallback})}, nil
	case ProtoQuantitative:
		return protoInfo{p: elect.QuantitativeElect(), quant: true}, nil
	case ProtoPetersen:
		return protoInfo{p: elect.PetersenElect()}, nil
	case ProtoGather:
		return protoInfo{p: elect.Gather(elect.Options{Ordering: ord})}, nil
	default:
		return protoInfo{}, fmt.Errorf("campaign: unknown protocol %q", kind)
	}
}

// expectedOutcome predicts a run's outcome from the centralized analysis
// (Theorems 3.1 and 4.1), or "" when the oracle does not apply.
func expectedOutcome(kind ProtocolKind, an *elect.Analysis, cayleyFallback bool) string {
	if an == nil {
		return ""
	}
	gcdRule := "unsolvable"
	if an.GCD == 1 {
		gcdRule = "leader"
	}
	switch kind {
	case ProtoElect, ProtoGather:
		return gcdRule
	case ProtoCayley:
		if an.Cayley {
			return gcdRule
		}
		if cayleyFallback {
			return gcdRule
		}
		return "" // non-Cayley without fallback: the protocol errs by contract
	case ProtoQuantitative:
		return "leader" // universal (Section 1.3)
	default:
		return "" // petersen ad hoc: only specified for its one instance
	}
}

// Execute expands the spec and runs it. See ExecuteRuns.
func Execute(spec Spec, opt Options) (*Report, error) {
	return ExecuteContext(context.Background(), spec, opt)
}

// ExecuteContext expands the spec and runs it under ctx: cancellation
// stops feeding the pool, aborts in-flight simulations through
// sim.Config.Context, and marks never-started runs as canceled.
func ExecuteContext(ctx context.Context, spec Spec, opt Options) (*Report, error) {
	runs, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	return ExecuteRunsContext(ctx, runs, opt)
}

// ExecuteRuns drives an explicit work list through the pool. Results come
// back in work-list order regardless of completion order; the JSONL stream
// (when configured) is in completion order with indices for re-sorting.
func ExecuteRuns(runs []Run, opt Options) (*Report, error) {
	return ExecuteRunsContext(context.Background(), runs, opt)
}

// ExecuteRunsContext is ExecuteRuns under a context: when ctx is canceled
// (a server request dropped, a SIGTERM drain expired) the worker pool
// stops picking up work, every in-flight simulation is aborted through the
// engine's cancellation path, and the report comes back with the completed
// prefix summarized, the rest marked canceled, and ctx's error.
func ExecuteRunsContext(ctx context.Context, runs []Run, opt Options) (*Report, error) {
	opt = opt.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	if len(runs) == 0 {
		return nil, errors.New("campaign: empty work list")
	}
	protos := make(map[ProtocolKind]protoInfo)
	simProtos := make(map[string]protoInfo)
	for _, r := range runs {
		if r.ProtoSpec != "" {
			// Protocol-axis runs execute a registry protocol; the sim path
			// adapts it once per spec (the adapter is stateless and shared).
			if _, ok := simProtos[r.ProtoSpec]; !ok {
				cp, err := rtbackend.FromSpec(r.ProtoSpec)
				if err != nil {
					return nil, err
				}
				simProtos[r.ProtoSpec] = protoInfo{p: rtbackend.AsSimProtocol(cp), quant: true}
			}
			continue
		}
		kind := r.Protocol
		if kind == "" {
			kind = ProtoElect
		}
		if _, ok := protos[kind]; ok {
			continue
		}
		pi, err := protocolFor(kind, opt)
		if err != nil {
			return nil, err
		}
		protos[kind] = pi
	}

	cache := opt.Cache
	if cache == nil {
		cache = analysiscache.New(analysiscache.Config{MaxBytes: opt.CacheMaxBytes})
	}
	cacheBefore := cache.Stats()
	jw := newJSONLWriter(opt.JSONL)
	// Workers only fill their runs' slots (and the JSONL stream); the
	// summary is computed from the slots once the pool drains.
	results := make([]RunResult, len(runs))
	idx := make(chan int)
	var wg sync.WaitGroup

	// Campaign-level telemetry: the iso counter delta over the whole
	// campaign, and (for the timeline) one span track per worker.
	var isoBefore iso.SearchStats
	if opt.Telemetry {
		isoBefore = iso.Stats()
	}
	var camRun *telemetry.Run // nil-safe: no-op without a timeline
	if opt.Timeline != nil {
		camRun = telemetry.NewRun()
	}

	start := time.Now()
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			camRun.SetTrackName(w, "worker "+strconv.Itoa(w))
			for i := range idx {
				var res RunResult
				if ctx.Err() != nil {
					res = canceledResult(i, runs[i])
				} else {
					kind := runs[i].Protocol
					if kind == "" {
						kind = ProtoElect
					}
					pi := protos[kind]
					if runs[i].ProtoSpec != "" {
						pi = simProtos[runs[i].ProtoSpec]
					}
					opt.Metrics.Gauge("campaign_inflight").Add(1)
					sp := camRun.StartSpan(w, runs[i].Instance, telemetry.PhaseNone)
					res = executeOne(ctx, i, runs[i], kind, pi, opt, cache)
					sp.End()
					opt.Metrics.Gauge("campaign_inflight").Add(-1)
				}
				results[i] = res
				jw.write(res)
			}
		}(w)
	}
feed:
	for i := range runs {
		select {
		case idx <- i:
		case <-ctx.Done():
			// Never-fed runs get canceled records so the report stays
			// index-complete; workers drain what is already queued (each
			// checks ctx before executing, so nothing new actually runs).
			for j := i; j < len(runs); j++ {
				results[j] = canceledResult(j, runs[j])
				jw.write(results[j])
			}
			break feed
		}
	}
	close(idx)
	wg.Wait()

	cd := cache.Stats()
	hits := (cd.Hits + cd.Coalesced) - (cacheBefore.Hits + cacheBefore.Coalesced)
	misses := cd.Misses - cacheBefore.Misses
	analysisMS := cd.AnalysisMS - cacheBefore.AnalysisMS
	wallMS := float64(time.Since(start)) / float64(time.Millisecond)
	rep := &Report{
		Results: results,
		Summary: summarize(results, opt.RatioBound, opt.Workers, wallMS, hits, misses, analysisMS),
	}
	if opt.Telemetry {
		d := iso.Stats().Sub(isoBefore)
		rep.Summary.IsoSearch = &d
	}
	if jw != nil && jw.err != nil {
		return rep, fmt.Errorf("campaign: jsonl write: %w", jw.err)
	}
	if opt.Timeline != nil {
		if err := telemetry.WriteChromeTrace(opt.Timeline, camRun); err != nil {
			return rep, fmt.Errorf("campaign: timeline write: %w", err)
		}
	}
	if err := ctx.Err(); err != nil {
		return rep, fmt.Errorf("campaign: %w", err)
	}
	return rep, nil
}

// canceledResult records a run the canceled campaign never executed (or
// refused to start): index-complete reports survive a drain.
func canceledResult(index int, run Run) RunResult {
	protoName := string(run.Protocol)
	if run.ProtoSpec != "" {
		protoName = run.ProtoSpec
	}
	return RunResult{
		Index: index, Instance: run.Instance, Protocol: protoName,
		N: run.G.N(), M: run.G.M(), R: len(run.Homes), Seed: run.Seed,
		Strategy: run.Strategy, Fault: run.Fault, Backend: run.Backend,
		Outcome: "canceled", Err: "campaign: canceled before run started",
	}
}

// publishRun records a finished run in the live registry (nil is a
// no-op): the run, outcome, retry and violation counters, and for a run
// that did not error its moves, accesses and Theorem 3.1 ratio (in
// thousandths) in the histograms the /debug/live dashboard reads.
func publishRun(reg *telemetry.Registry, res RunResult, bound float64) {
	if reg == nil {
		return
	}
	reg.Counter("campaign_runs_total").Inc()
	reg.Counter("campaign_outcome_" + res.Outcome).Inc()
	reg.Counter("campaign_retries_total").Add(int64(res.Attempts - 1))
	if len(res.Violations) > 0 {
		reg.Counter("campaign_invariant_violations_total").Inc()
	}
	if res.Err != "" {
		return
	}
	reg.Histogram("campaign_run_moves").Observe(res.Moves)
	reg.Histogram("campaign_run_accesses").Observe(res.Accesses)
	reg.Histogram("campaign_run_ratio_milli").Observe(int64(res.Ratio * 1000))
	if res.Ratio > bound {
		reg.Counter("campaign_bound_violations_total").Inc()
	}
}

// executeOne runs one unit of work: cached analysis, then the simulation
// under the watchdog with bounded reseeded retries. ctx cancellation
// aborts the in-flight simulation (sim.ErrCanceled, never retried).
// Backend-axis runs short-circuit into executeBackendRun.
func executeOne(ctx context.Context, index int, run Run, kind ProtocolKind, pi protoInfo, opt Options, cache *analysiscache.Cache) (res RunResult) {
	if run.Backend != "" {
		return executeBackendRun(ctx, index, run, kind, opt, cache)
	}
	res = RunResult{
		Index: index, Instance: run.Instance, Protocol: string(kind),
		N: run.G.N(), M: run.G.M(), R: len(run.Homes), Seed: run.Seed,
		Strategy: run.Strategy, Fault: run.Fault,
		RequestID: telemetry.RequestIDFrom(ctx),
	}
	// Protocol-axis runs record the registry spec as the protocol name and
	// are judged under the protocol's own central oracle and verdict mode
	// (zoo.Predict); a spec the oracle does not know runs with no
	// prediction, strong mode, and only the generic safety invariants.
	mode := elect.ModeStrong
	if run.ProtoSpec != "" {
		res.Protocol = run.ProtoSpec
		mode = zoo.ModeOf(run.ProtoSpec)
		if !opt.NoAnalysis {
			if pred, err := zoo.Predict(run.ProtoSpec, run.G, nil, run.Homes); err == nil {
				if pred.Solvable {
					res.Expected = "leader"
				} else {
					res.Expected = "unsolvable"
				}
			}
		}
	}
	// Strategy runs are serialized through the adversary turnstile; the
	// class map is schedule-independent, so compute it once per run.
	var classOf []int
	if run.Strategy != "" {
		classOf = adversary.AgentClasses(run.G, run.Homes)
	}
	// tRun collects the final attempt's per-phase counters (fresh per
	// attempt so a retried run does not double-count); the deferred block
	// folds them into the result and the live metrics on every exit path.
	var tRun *telemetry.Run
	defer func() {
		if tRun != nil {
			tot := tRun.Totals()
			res.PhaseMoves = phaseMap(tot.Moves)
			res.PhaseAccesses = phaseMap(tot.Accesses)
			res.PhaseWrites = phaseMap(tot.Writes)
			res.PhaseErases = phaseMap(tot.Erases)
			for p := telemetry.Phase(0); p < telemetry.NumPhases; p++ {
				if v := tot.Moves[p]; v != 0 {
					opt.Metrics.Counter("campaign_phase_moves_" + p.String()).Add(v)
				}
				if v := tot.Accesses[p]; v != 0 {
					opt.Metrics.Counter("campaign_phase_accesses_" + p.String()).Add(v)
				}
			}
		}
		publishRun(opt.Metrics, res, opt.RatioBound)
	}()
	if !opt.NoAnalysis {
		an, hit, err := cache.Get(ctx, run.G, run.Homes)
		if err == nil {
			res.Sizes = an.Sizes
			res.GCD = an.GCD
			res.CacheHit = hit
		} else {
			an = nil
		}
		if run.ProtoSpec == "" {
			res.Expected = expectedOutcome(kind, an, opt.CayleyFallback)
		}
	}

	start := time.Now()
	var simRes *sim.Result
	var runErr error
	var injector *faults.Injector
	var seed int64
	var decisions *sim.Schedule
	for attempt := 1; ; attempt++ {
		res.Attempts = attempt
		p := pi.p
		if opt.testProtocol != nil {
			p = opt.testProtocol(run, attempt)
		}
		if opt.Telemetry {
			tRun = telemetry.NewRun()
		}
		seed = run.Seed + int64(attempt-1)*retrySeedOffset
		var scheduler sim.Strategy
		if run.Strategy != "" {
			scheduler, runErr = adversary.NewStrategy(run.Strategy, seed, classOf)
			if runErr != nil {
				break
			}
			// A fresh log per attempt, so the bundle is the final attempt's.
			decisions = &sim.Schedule{}
		}
		injector = nil
		if run.Fault != "" {
			// A fresh injector per attempt: a retried run re-derives its fault
			// plan from the retry seed, like the scheduler.
			injector, runErr = faults.New(run.Fault, seed, len(run.Homes), run.Homes)
			if runErr != nil {
				break
			}
		}
		simCfg := sim.Config{
			Graph: run.G, Homes: run.Homes,
			Context:          ctx,
			Seed:             seed,
			MaxDelay:         opt.MaxDelay,
			WakeAll:          opt.WakeAll,
			Timeout:          opt.RunTimeout,
			QuantitativeIDs:  pi.quant,
			AllowSharedHomes: opt.AllowSharedHomes,
			Telemetry:        tRun,
			Scheduler:        scheduler,
			Record:           decisions,
		}
		if run.ProtoSpec != "" {
			// Contract protocols run under the runtime backends' semantics:
			// everyone wakes, and ports carry the instance's shared trivial
			// labeling so the run matches the central oracle and the
			// message-passing backends exactly.
			simCfg.WakeAll = true
			simCfg.PortLabels = graph.PortLabeling(run.G)
		}
		if injector != nil {
			simCfg.Faults = injector
		}
		simRes, runErr = sim.Run(simCfg, p)
		if runErr == nil || !errors.Is(runErr, sim.ErrAborted) || attempt > opt.MaxRetries {
			break
		}
	}
	res.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)

	// The per-run fault manifest: what the plan actually injected, plus the
	// base64 plan bytes for replay (recorded even on error — crash-induced
	// deadlocks are the interesting runs).
	if injector != nil {
		res.FaultEvents = len(injector.Recorded().Events)
		res.FaultPlan = injector.Recorded().EncodeString()
	}
	if simRes != nil {
		res.Crashed = simRes.CrashedCount()
		res.Takeovers = simRes.Takeovers
	}

	// Strategy-scheduled runs are held to the protocol invariants — the
	// campaign is the repo's adversary sweep. Fault runs use the relaxed
	// fault-aware contract: failing is allowed, electing wrongly is not.
	// Protocol-axis runs are always checked, under the protocol's own
	// verdict mode.
	if run.Strategy != "" || run.ProtoSpec != "" {
		res.Violations = elect.CheckInvariants(simRes, runErr, elect.InvariantSpec{
			Expected: res.Expected, Mode: mode, M: res.M, RatioBound: opt.RatioBound,
			FaultsInjected: run.Fault != "",
		})
	}
	// A violating scheduled run carries its replay bundle for cmd/elect
	// -replay; clean records stay small. Protocol-axis runs carry none:
	// cmd/elect does not run registry specs.
	if len(res.Violations) > 0 && decisions != nil && run.ProtoSpec == "" {
		res.Replay = &adversary.ScheduleFile{
			Family: run.Family, Size: run.Size, Homes: run.Homes,
			Seed: seed, Protocol: res.Protocol,
			WakeAll: opt.WakeAll, Hairs: opt.UseHairOrdering,
			Strategy: run.Strategy,
			Schedule: adversary.EncodeScheduleString(decisions),
			Fault:    run.Fault, FaultPlan: res.FaultPlan,
		}
	}

	if runErr != nil {
		res.Outcome = "error"
		if errors.Is(runErr, sim.ErrCanceled) {
			res.Outcome = "canceled"
		}
		res.Err = runErr.Error()
		res.Aborted = errors.Is(runErr, sim.ErrAborted)
		// Under injected faults a run error (crash-induced deadlock) is an
		// expected liveness loss: the run still passes if the survivor-scoped
		// invariants held. Fault-free runs never pass on error.
		res.OK = run.Fault != "" && len(res.Violations) == 0
		return res
	}
	res.Moves = simRes.TotalMoves()
	res.Accesses = simRes.TotalAccesses()
	if res.R*res.M > 0 {
		res.Ratio = float64(res.Moves) / float64(res.R*res.M)
	}
	switch {
	case elect.Elected(simRes, mode):
		res.Outcome = "leader"
	case simRes.AllUnsolvable():
		res.Outcome = "unsolvable"
	default:
		res.Outcome = "mixed"
	}
	switch {
	case run.Fault != "", run.ProtoSpec != "":
		// Under injected faults the oracle verdict is not owed (survivors may
		// legitimately fail); a fault run is OK iff safety held. Protocol-axis
		// runs fold their mode-aware verdict check into the violations too.
		res.OK = len(res.Violations) == 0
	default:
		res.OK = res.Expected == "" || res.Outcome == res.Expected
	}
	return res
}

// executeBackendRun runs one backend-axis unit: a contract protocol on the
// named internal/runtime backend. Without a protocol axis that is the
// contract election (runtime.DFSElection) under the quantitative
// universality oracle — the run is OK iff a unique leader emerged and it is
// the maximum identity. Protocol-axis runs execute the run's registry spec
// instead, judged against its own central oracle (zoo.Predict: verdict,
// unique leader, winner identity).
func executeBackendRun(ctx context.Context, index int, run Run, kind ProtocolKind, opt Options, cache *analysiscache.Cache) (res RunResult) {
	spec := run.ProtoSpec
	protoName := string(kind)
	if spec == "" {
		spec = "dfs-election"
	} else {
		protoName = spec
	}
	res = RunResult{
		Index: index, Instance: run.Instance, Protocol: protoName,
		N: run.G.N(), M: run.G.M(), R: len(run.Homes), Seed: run.Seed,
		Backend:   run.Backend,
		Attempts:  1,
		RequestID: telemetry.RequestIDFrom(ctx),
	}
	defer func() {
		publishRun(opt.Metrics, res, opt.RatioBound)
		opt.Metrics.Counter("campaign_backend_runs_" + run.Backend).Inc()
	}()
	p, err := rtbackend.FromSpec(spec)
	if err != nil {
		res.Outcome, res.Err = "error", err.Error()
		return res
	}
	pred, err := zoo.Predict(spec, run.G, nil, run.Homes)
	if err != nil {
		res.Outcome, res.Err = "error", err.Error()
		return res
	}
	if pred.Solvable {
		res.Expected = "leader"
	} else {
		res.Expected = "unsolvable"
	}
	if !opt.NoAnalysis {
		if an, hit, err := cache.Get(ctx, run.G, run.Homes); err == nil {
			res.Sizes = an.Sizes
			res.GCD = an.GCD
			res.CacheHit = hit
		}
	}
	rt, err := rtbackend.New(run.Backend)
	if err != nil {
		res.Outcome, res.Err = "error", err.Error()
		return res
	}
	start := time.Now()
	rres, err := rt.Run(rtbackend.Config{
		Graph: run.G, Homes: run.Homes, Seed: run.Seed,
		AllowSharedHomes: opt.AllowSharedHomes,
	}, p)
	res.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil {
		res.Outcome, res.Err = "error", err.Error()
		return res
	}
	res.Moves = rres.TotalMoves()
	res.Accesses = int64(rres.Steps)
	if res.R*res.M > 0 {
		res.Ratio = float64(res.Moves) / float64(res.R*res.M)
	}
	res.Outcome = zoo.Verdict(rres)
	res.Violations = zoo.Check(rres, pred)
	res.OK = len(res.Violations) == 0
	return res
}

// Instance is a named (graph, homes) input for analysis-only batches.
type Instance struct {
	Name  string
	G     *graph.Graph
	Homes []int
}

// AnalyzeBatch computes the centralized analysis of every instance through
// a bounded pool sharing one analysis cache — the engine behind the
// experiment suite's decision sweeps. Results come back in input order;
// the first analysis error aborts with the instance's name attached.
func AnalyzeBatch(insts []Instance, workers int) ([]*elect.Analysis, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cache := analysiscache.New(analysiscache.Config{})
	out := make([]*elect.Analysis, len(insts))
	errs := make([]error, len(insts))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				an, _, err := cache.Get(context.Background(), insts[i].G, insts[i].Homes)
				out[i], errs[i] = an, err
			}
		}()
	}
	for i := range insts {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("campaign: analyze %s %v: %w", insts[i].Name, insts[i].Homes, err)
		}
	}
	return out, nil
}
