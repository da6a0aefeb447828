// Command campaign runs a multi-seed election campaign: a declarative spec
// (graph families × sizes × home placements × seed ranges × protocol) is
// expanded into a deterministic work list and executed by a bounded worker
// pool with per-run watchdog timeouts, bounded retry of aborted runs, and a
// shared analysis cache (see internal/campaign).
//
// Usage:
//
//	campaign -families "cycle:9,12,15;hypercube:3" -placement spread -r 3 \
//	         -seeds 1..25 [-protocol elect|cayley|quantitative|petersen|gather] \
//	         [-strategies all|name,name,...] [-faults all|name,name,...] \
//	         [-backends all|name,name,...] \
//	         [-workers N] [-run-timeout 60s] [-retries 2] [-max-delay 0] \
//	         [-wake-all] [-hairs] [-bound 40] \
//	         [-jsonl runs.jsonl] [-summary summary.json] [-q] \
//	         [-telemetry] [-timeline timeline.json] [-listen :8080]
//
// -placement takes a placement strategy or an explicit home list ("1,2"),
// which every family then uses; a focused sweep of one instance is
// -families "star:4" -placement 1,2.
//
// With -strategies every (instance, seed) additionally runs once per named
// adversary scheduling strategy (internal/adversary) under the serializing
// scheduler, with protocol invariants checked per run; violations fail the
// campaign. A violating run's JSONL record carries a "replay" bundle
// (instance, seed, decision log, fault plan): save that object to a file
// and cmd/elect -replay re-executes the run bit-for-bit.
//
// With -backends every (instance, seed) runs the contract election
// (runtime.DFSElection) once per named runtime backend — goroutine,
// scheduled, transformed, networked (see internal/runtime and DESIGN.md
// §15). The backend axis requires -protocol quantitative (or a -protocols
// axis) and excludes the strategy and fault axes; per-run records carry the
// backend name. Use cmd/electnode for a focused single-instance backend run.
//
// With -protocols every run executes the named contract protocol specs from
// the runtime registry — the related-work zoo (zoo-dp,
// zoo-shades:strong|weak|selection, zoo-uso; see internal/zoo) plus
// dfs-election; "all" expands to exactly that list. Protocol-axis runs are
// judged against each protocol's own central oracle under its verdict mode
// (strong / weak / selection). They execute on the named -backends, or —
// without a backend axis — through the simulator adapter, where they
// compose with -strategies and -faults. Use cmd/zoo for the cross-protocol
// feasibility matrix.
//
// With -faults every run additionally injects a fault plan (internal/faults:
// crash-stops, torn writes, read staleness) and is checked against the
// fault-aware survivor-scoped invariants; per-run fault manifests land in
// the JSONL stream and crash percentiles in the summary. Crash-induced run
// errors (a deadlock among survivors) are expected liveness losses and do
// not fail the campaign; fault-aware invariant violations do.
//
// Per-run results stream to the -jsonl file as they complete; the aggregate
// summary prints to stdout and, with -summary, is written as JSON (the CI
// perf artifact BENCH_campaign.json). The command exits nonzero when any
// run errors, contradicts the gcd/Cayley oracle, breaks a protocol
// invariant, or exceeds the Theorem 3.1 move bound.
//
// Observability: -telemetry collects per-run phase counters into the
// per-run records and the summary's phase table; -timeline exports the
// worker-pool schedule as Chrome trace_event JSON for Perfetto; -listen
// serves live campaign counters as JSON at /debug/metrics, a server-sent
// metrics stream at /debug/metrics/stream, the live operator dashboard at
// /debug/live, and the standard pprof profiles under /debug/pprof/ while
// the campaign runs.
//
// Aggregation: -stream on folds per-run results into mergeable sketches
// (O(1) memory, percentiles within the documented ~3% sketch error)
// instead of buffering every RunResult; -stream auto (default) switches
// to sketches at -stream-threshold runs (default 100000); -stream off
// always buffers exactly.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/prof"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

func main() {
	// A networked-backend coordinator may re-exec this binary as a bus
	// worker; the env check routes those children into the worker loop.
	runtime.MaybeWorker()
	families := flag.String("families", "cycle:6,9,12", "semicolon-separated family:size1,size2 specs")
	placement := flag.String("placement", "spread", "home placement strategy (spread, adjacent, antipodal, single) or an explicit home list such as 1,2")
	r := flag.Int("r", 2, "number of agents for the placement strategy")
	seeds := flag.String("seeds", "1..10", "inclusive seed range a..b (or a single seed)")
	strategies := flag.String("strategies", "", "comma-separated adversary scheduling strategies to cross with every run (\"all\" = every built-in; empty = free-running)")
	faultsArg := flag.String("faults", "", "comma-separated fault strategies to cross with every run (\"all\" = every built-in; implies -strategies random if none set)")
	backendsArg := flag.String("backends", "", "comma-separated runtime backends to cross with every run (\"all\" = goroutine,scheduled,transformed,networked; needs -protocol quantitative or -protocols)")
	protocolsArg := flag.String("protocols", "", "comma-separated contract protocol specs to cross with every run (\"all\" = every zoo protocol plus dfs-election; empty = the classic -protocol kind)")
	protocol := flag.String("protocol", "elect", "protocol: elect, cayley, quantitative, petersen, gather")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	runTimeout := flag.Duration("run-timeout", 60*time.Second, "per-run watchdog timeout")
	retries := flag.Int("retries", 2, "max retries of watchdog-aborted runs (reseeded); -1 disables")
	maxDelay := flag.Duration("max-delay", 0, "adversarial per-operation delay bound (0 = yields only)")
	wakeAll := flag.Bool("wake-all", false, "wake all agents at start")
	hairs := flag.Bool("hairs", false, "use the paper's hair ordering for ≺ (Lemma 3.1)")
	fallback := flag.Bool("cayley-fallback", false, "cayley protocol falls back to ELECT on non-Cayley maps")
	bound := flag.Float64("bound", 40, "Theorem 3.1 ratio bound c: fail if moves > c·r·|E|")
	jsonlPath := flag.String("jsonl", "", "write per-run JSONL records to this file")
	summaryPath := flag.String("summary", "", "write the aggregate summary JSON to this file")
	quiet := flag.Bool("q", false, "suppress the per-failure listing")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	telemetryOn := flag.Bool("telemetry", false, "collect per-run phase counters and iso search stats (implied by -timeline and -listen)")
	timelinePath := flag.String("timeline", "", "write the worker-pool timeline as Chrome trace_event JSON (open in Perfetto) to this file")
	listen := flag.String("listen", "", "serve live metrics at /debug/metrics and pprof under /debug/pprof/ on this address")
	stream := flag.String("stream", "auto", "streaming aggregation: auto (sketches at >= stream-threshold runs), on, off")
	streamThreshold := flag.Int("stream-threshold", campaign.DefaultStreamThreshold, "run count at which -stream auto switches to sketch aggregation")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintln(out, "Usage: campaign [flags]")
		fmt.Fprintln(out, "Runs a multi-seed election campaign (see internal/campaign).")
		fmt.Fprintln(out)
		flag.PrintDefaults()
		fmt.Fprintln(out, `
With -listen ADDR the campaign serves its operator endpoints while running:
  /debug/metrics         live campaign counters and gauges as JSON
  /debug/metrics/stream  server-sent events (SSE) metrics feed
  /debug/live            live operator dashboard (HTML)
  /debug/pprof/          pprof index (cmdline, profile, symbol, trace)`)
	}
	flag.Parse()

	stopProf := prof.Start(*cpuprofile, *memprofile)
	defer stopProf()

	fams, err := campaign.ParseFamilies(*families, *placement, *r)
	if err != nil {
		fail(err)
	}
	seedRange, err := campaign.ParseSeedRange(*seeds)
	if err != nil {
		fail(err)
	}
	strats, err := campaign.ParseStrategies(*strategies)
	if err != nil {
		fail(err)
	}
	faultNames, err := campaign.ParseFaults(*faultsArg)
	if err != nil {
		fail(err)
	}
	backendNames, err := campaign.ParseBackends(*backendsArg)
	if err != nil {
		fail(err)
	}
	protoSpecs, err := campaign.ParseProtocols(*protocolsArg)
	if err != nil {
		fail(err)
	}
	streamMode, err := campaign.ParseStreamMode(*stream)
	if err != nil {
		fail(err)
	}
	spec := campaign.Spec{
		Families:   fams,
		Seeds:      seedRange,
		Protocol:   campaign.ProtocolKind(*protocol),
		Strategies: strats,
		Faults:     faultNames,
		Backends:   backendNames,
		Protocols:  protoSpecs,
	}
	opt := campaign.Options{
		Workers:         *workers,
		RunTimeout:      *runTimeout,
		MaxRetries:      *retries,
		MaxDelay:        *maxDelay,
		WakeAll:         *wakeAll,
		UseHairOrdering: *hairs,
		CayleyFallback:  *fallback,
		RatioBound:      *bound,
		Telemetry:       *telemetryOn,
		Stream:          streamMode,
		StreamThreshold: *streamThreshold,
	}
	var metricsSrv *serve.HTTPServer
	if *listen != "" {
		// pprof handlers are registered explicitly so the default mux (and
		// anything else registered on it) is not exposed. The lifecycle
		// helper propagates serve errors (the bare `go http.Serve` it
		// replaces silently lost them) and shuts the listener down once the
		// campaign is done instead of leaking it until process exit.
		reg := telemetry.NewRegistry()
		opt.Metrics = reg
		mux := http.NewServeMux()
		mux.Handle("/debug/metrics", reg)
		mux.Handle("/debug/metrics/stream", reg.StreamHandler())
		mux.Handle("/debug/live", telemetry.DashboardHandler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		var err error
		metricsSrv, err = serve.Listen(*listen, mux, nil)
		if err != nil {
			fail(err)
		}
		metricsSrv.Start()
		fmt.Printf("serving metrics on http://%s/debug/metrics (live dashboard at /debug/live, SSE at /debug/metrics/stream, pprof under /debug/pprof/)\n", metricsSrv.Addr())
	}
	if *timelinePath != "" {
		f, err := os.Create(*timelinePath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		opt.Timeline = f
	}
	if *jsonlPath != "" {
		f, err := os.Create(*jsonlPath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		opt.JSONL = f
	}

	runs, err := spec.Expand()
	if err != nil {
		fail(err)
	}
	fmt.Printf("campaign: %d runs (%s, seeds %d..%d)\n",
		len(runs), *families, seedRange.From, seedRange.To)

	rep, err := campaign.ExecuteRuns(runs, opt)
	if err != nil {
		fail(err)
	}
	if metricsSrv != nil {
		// Surface a listener that died mid-campaign, then release the port.
		select {
		case serr := <-metricsSrv.Err():
			if serr != nil {
				fmt.Fprintln(os.Stderr, "campaign: metrics server:", serr)
			}
		default:
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := metricsSrv.Shutdown(ctx); err != nil {
			metricsSrv.Close() //nolint:errcheck // exiting anyway
		}
		cancel()
	}
	fmt.Print(rep.Summary.Render())
	if *timelinePath != "" {
		fmt.Printf("timeline written to %s (open in Perfetto or chrome://tracing)\n", *timelinePath)
	}

	if *summaryPath != "" {
		data, err := json.MarshalIndent(rep.Summary, "", "  ")
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*summaryPath, append(data, '\n'), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("summary written to %s\n", *summaryPath)
	}

	failures := rep.Failures()
	bad := len(failures) > 0 || rep.Summary.BoundViolations > 0
	if bad {
		if !*quiet {
			for _, f := range failures {
				line := fmt.Sprintf("FAIL run %d %s seed %d: outcome %s (expected %s) err=%q",
					f.Index, f.Instance, f.Seed, f.Outcome, f.Expected, f.Err)
				if f.Strategy != "" {
					line += " strategy=" + f.Strategy
				}
				for _, v := range f.Violations {
					line += fmt.Sprintf(" [%s]", v)
				}
				fmt.Fprintln(os.Stderr, line)
			}
			if rep.Summary.BoundViolations > 0 {
				fmt.Fprintf(os.Stderr, "FAIL: %d runs exceed the moves ≤ %.0f·r·|E| bound (max ratio %.1f)\n",
					rep.Summary.BoundViolations, rep.Summary.RatioBound, rep.Summary.RatioMax)
			}
		}
		stopProf() // os.Exit skips defers; flush profiles first
		os.Exit(1)
	}
}

// fail prints err under one "campaign:" prefix (most errors come from the
// campaign package, which already carries it) and exits 1.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "campaign:", strings.TrimPrefix(err.Error(), "campaign: "))
	os.Exit(1)
}
