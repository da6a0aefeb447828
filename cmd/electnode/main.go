// Command electnode runs one election on a chosen runtime backend — the
// focused single-instance entry point to the unified Protocol/Runtime
// contract (internal/runtime, DESIGN.md §15), and the worker binary of the
// networked backend's multi-process message bus.
//
// Usage:
//
//	electnode -graph cycle:9 -homes 0,3,6 [-backend networked] [-seed 1]
//	          [-protocol dfs-election] [-workers 2] [-transport unix|tcp]
//	          [-spawn pipe|process] [-wire-fault drop|delay|dup|reorder|mixed]
//	          [-wire-seed 1] [-wire-replay plan.b64] [-frame-log frames.log]
//	          [-max-steps 200000] [-listen :8080]
//
// The backend is one of goroutine, scheduled, transformed, networked. With
// -backend networked the election executes on a real message bus: one
// worker per node shard (-workers), spawned either as in-process pipes
// (-spawn pipe) or as re-exec'd OS processes (-spawn process) talking
// length-prefixed binary frames over -transport unix or tcp. -wire-fault
// injects seeded wire faults on the agent-message layer and prints the
// recorded plan (replayable via -wire-replay); -frame-log writes the
// coordinator's frame transcript, one JSON line per frame, for byte-exact
// replay comparison.
//
// With -listen the command serves operator endpoints while running and
// stays up after the election finishes (until SIGTERM/SIGINT) so the
// result metrics can be scraped:
//
//	GET /debug/metrics         run counters and gauges as JSON
//	GET /debug/metrics/stream  server-sent events (SSE) metrics feed
//	GET /debug/live            live operator dashboard (HTML)
//
// When spawned with the REPRO_ELECTNODE_WORKER environment variable set,
// the process becomes a bus worker instead: it dials the coordinator,
// serves its node shard, and exits (see runtime.MaybeWorker).
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/telemetry"

	// Register the related-work zoo protocols ("zoo-dp", "zoo-shades:*",
	// "zoo-uso") so -protocol accepts them alongside dfs-election.
	_ "repro/internal/zoo"
)

func main() {
	runtime.MaybeWorker()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "electnode:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		graphArg   = flag.String("graph", "cycle:6", "graph instance as family:size (see cmd/campaign families; petersen needs no size)")
		homesArg   = flag.String("homes", "0,3", "comma-separated home-base nodes (agent i gets ID i+1)")
		backend    = flag.String("backend", "networked", "runtime backend: goroutine, scheduled, transformed, networked")
		protocol   = flag.String("protocol", "dfs-election", "protocol spec from the runtime registry (\"name\" or \"name:args\")")
		seed       = flag.Int64("seed", 1, "scheduling seed (deterministic backends replay exactly per seed)")
		maxSteps   = flag.Int("max-steps", 0, "activation budget (0 = the runtime default)")
		workers    = flag.Int("workers", 2, "node shards of the networked backend")
		transport  = flag.String("transport", "unix", "networked process transport: unix or tcp")
		spawn      = flag.String("spawn", runtime.SpawnProcess, "networked worker mode: process (re-exec'd OS processes) or pipe (in-process)")
		wireFault  = flag.String("wire-fault", "", "wire-fault strategy on the networked bus: drop, delay, dup, reorder, mixed")
		wireSeed   = flag.Int64("wire-seed", 1, "wire-fault injection seed")
		wireReplay = flag.String("wire-replay", "", "replay a recorded base64 wire plan instead of seeded injection")
		frameLog   = flag.String("frame-log", "", "write the coordinator's frame transcript to this file")
		listen     = flag.String("listen", "", "serve /debug/metrics on this address and stay up after the run until SIGTERM")
	)
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintln(out, "Usage: electnode [flags]")
		fmt.Fprintln(out, "Runs one election on a runtime backend (internal/runtime).")
		fmt.Fprintln(out)
		flag.PrintDefaults()
		fmt.Fprintln(out, `
With -listen ADDR the command serves operator endpoints during and after
the run (it stays up until SIGTERM/SIGINT so metrics can be scraped):
  /debug/metrics         run counters and gauges as JSON
  /debug/metrics/stream  server-sent events (SSE) metrics feed
  /debug/live            live operator dashboard (HTML)`)
	}
	flag.Parse()

	g, err := parseGraph(*graphArg)
	if err != nil {
		return err
	}
	homes, err := campaign.ParseHomes(*homesArg)
	if err != nil {
		return err
	}
	p, err := runtime.FromSpec(*protocol)
	if err != nil {
		return err
	}
	rt, err := runtime.New(*backend)
	if err != nil {
		return err
	}

	var injector faults.WireInjector
	if nw, ok := rt.(*runtime.Networked); ok {
		nw.Workers = *workers
		nw.Transport = *transport
		nw.Spawn = *spawn
		switch {
		case *wireReplay != "":
			plan, err := faults.DecodeWirePlanString(*wireReplay)
			if err != nil {
				return err
			}
			injector = faults.ReplayWire(plan)
		case *wireFault != "":
			injector, err = faults.NewWire(*wireFault, *wireSeed)
			if err != nil {
				return err
			}
		}
		nw.WireFaults = injector
		if *frameLog != "" {
			f, err := os.Create(*frameLog)
			if err != nil {
				return err
			}
			defer f.Close()
			nw.FrameLog = f
		}
	} else if *wireFault != "" || *wireReplay != "" || *frameLog != "" {
		return fmt.Errorf("wire faults and frame logs need -backend networked, not %q", *backend)
	}

	reg := telemetry.NewRegistry()
	var srv *serve.HTTPServer
	if *listen != "" {
		mux := http.NewServeMux()
		mux.Handle("/debug/metrics", reg)
		mux.Handle("/debug/metrics/stream", reg.StreamHandler())
		mux.Handle("/debug/live", telemetry.DashboardHandler())
		srv, err = serve.Listen(*listen, mux, nil)
		if err != nil {
			return err
		}
		srv.Start()
		fmt.Printf("serving metrics on http://%s/debug/metrics\n", srv.Addr())
	}

	cfg := runtime.Config{Graph: g, Homes: homes, Seed: *seed, MaxSteps: *maxSteps}
	start := time.Now()
	res, err := rt.Run(cfg, p)
	elapsed := time.Since(start)
	reg.Counter("electnode_runs_total").Inc()
	if err != nil {
		reg.Counter("electnode_errors_total").Inc()
		return err
	}
	reg.Gauge("electnode_leader").Set(int64(res.Leader()))
	reg.Gauge("electnode_moves_total").Set(res.TotalMoves())
	reg.Gauge("electnode_steps").Set(int64(res.Steps))

	fmt.Printf("backend %s: %d agents on %s (n=%d), seed %d\n",
		res.Backend, len(homes), *graphArg, g.N(), *seed)
	fmt.Printf("leader: agent %d\n", res.Leader())
	fmt.Printf("outcomes: %v\n", res.Outcomes)
	fmt.Printf("moves: %v (total %d), steps %d, elapsed %s\n",
		res.Moves, res.TotalMoves(), res.Steps, elapsed.Round(time.Millisecond))
	if injector != nil {
		plan := injector.Plan()
		reg.Gauge("electnode_wire_faults").Set(int64(len(plan.Events)))
		fmt.Printf("wire faults (%d): %s\n", len(plan.Events), plan.Summary())
		fmt.Printf("wire plan: %s\n", plan.EncodeString())
	}
	if *frameLog != "" {
		fmt.Printf("frame log written to %s\n", *frameLog)
	}

	if srv != nil {
		// Stay up for scrapers until the operator says otherwise.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
		<-sig
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close() //nolint:errcheck // exiting anyway
		}
	}
	return nil
}

// parseGraph builds a "family:size" instance through the campaign registry.
func parseGraph(s string) (g *graph.Graph, err error) {
	name, sizePart, hasSize := strings.Cut(s, ":")
	size := 0
	if hasSize {
		size, err = strconv.Atoi(strings.TrimSpace(sizePart))
		if err != nil {
			return nil, fmt.Errorf("bad graph size in %q: %w", s, err)
		}
	}
	return campaign.BuildGraph(strings.TrimSpace(name), size)
}
