// Command elect runs one simulated election and prints the per-agent
// outcomes and cost counters.
//
// Usage:
//
//	elect -graph cycle -n 6 -homes 0,3 [-protocol elect|cayley|quantitative|petersen|gather]
//	      [-seed N] [-hairs] [-wake-all] [-trace] [-timeline out.json]
//	      [-strategy name [-record sched.json]] [-replay sched.json]
//	      [-faults name [-fault-seed N]]
//
// With -timeline the run is collected by internal/telemetry and exported
// as Chrome trace_event JSON: open the file in Perfetto (ui.perfetto.dev)
// or chrome://tracing to see per-agent protocol phase spans and whiteboard
// events on a common timeline, plus a per-phase cost breakdown on stdout.
//
// With -strategy the run is serialized through the deterministic adversary
// scheduler (see internal/adversary); -record saves its decision log as a
// self-contained replay file, and -replay re-executes such a file (as
// written here, or the "replay" object of a violating cmd/campaign JSONL
// record saved to a file) bit-for-bit — combine with -timeline to inspect
// a violating schedule in Perfetto.
//
// With -faults a fault strategy (see internal/faults) injects crash-stops,
// torn whiteboard writes, or read staleness into the scheduled run; the
// injected plan is printed after the run, -record saves it alongside the
// schedule, and -replay re-injects a saved plan exactly.
//
// Graph families (campaign.BuildGraph): path, cycle, complete, star,
// hypercube (n = dimension), torus (n×n), grid (n×n), petersen, fig2c
// (the paper's Figure 2(c) graph), wheel, prism, ccc (n = dimension),
// random.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/adversary"
	"repro/internal/campaign"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// errMixed marks the protocol-contract-violated exit without an extra
// message (run already printed the outcome block).
var errMixed = errors.New("mixed outcomes")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, errMixed) {
			fmt.Fprintln(os.Stderr, "elect:", err)
		}
		os.Exit(1)
	}
}

// run executes one invocation against the given flag arguments, writing all
// human output to w (separated from main for the golden-output tests).
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("elect", flag.ContinueOnError)
	family := fs.String("graph", "cycle", "graph family: path, cycle, complete, star, hypercube, torus, grid, petersen, fig2c, wheel, prism, ccc, random")
	n := fs.Int("n", 6, "size parameter (nodes, or dimension for hypercube/ccc, or side for torus/grid)")
	homesArg := fs.String("homes", "0", "comma-separated home-base nodes")
	protocol := fs.String("protocol", "elect", "protocol: elect, cayley, quantitative, petersen, gather")
	seed := fs.Int64("seed", 1, "adversary seed")
	hairs := fs.Bool("hairs", false, "use the paper's hair ordering for ≺ (Lemma 3.1)")
	wakeAll := fs.Bool("wake-all", false, "wake all agents at start (default: random nonempty subset)")
	analyze := fs.Bool("analyze", true, "print the centralized solvability analysis")
	trace := fs.Bool("trace", false, "print every runtime event (moves, sign writes, outcomes)")
	timeline := fs.String("timeline", "", "write a Chrome trace_event timeline (open in Perfetto) to this file")
	strategyName := fs.String("strategy", "", "adversary scheduling strategy (deterministic serialized run): "+strings.Join(adversary.Strategies(), ", "))
	recordPath := fs.String("record", "", "write the scheduled run's decision log as a replay file (requires -strategy)")
	replayPath := fs.String("replay", "", "replay a recorded schedule file (overrides -graph/-n/-homes/-seed/-protocol/-hairs/-wake-all/-strategy/-faults)")
	faultName := fs.String("faults", "", "fault strategy to inject (implies -strategy random if none set): "+strings.Join(faults.Strategies(), ", "))
	faultSeed := fs.Int64("fault-seed", 0, "seed for the fault strategy (default: the run seed)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var replayFile *adversary.ScheduleFile
	if *replayPath != "" {
		var err error
		replayFile, err = adversary.LoadScheduleFile(*replayPath)
		if err != nil {
			return err
		}
		*family, *n = replayFile.Family, replayFile.Size
		*seed, *wakeAll, *hairs = replayFile.Seed, replayFile.WakeAll, replayFile.Hairs
		if replayFile.Protocol != "" {
			*protocol = replayFile.Protocol
		}
		fmt.Fprintf(w, "replaying %s: %s%d%v seed %d (recorded under strategy %q)\n",
			*replayPath, replayFile.Family, replayFile.Size, replayFile.Homes, replayFile.Seed, replayFile.Strategy)
		if replayFile.Fault != "" {
			fmt.Fprintf(w, "replaying fault plan recorded under fault strategy %q\n", replayFile.Fault)
		}
	}

	g, err := campaign.BuildGraph(*family, *n)
	if err != nil {
		return err
	}
	homes, err := campaign.ParseHomes(*homesArg)
	if err != nil {
		return err
	}
	if replayFile != nil {
		homes = replayFile.Homes
	}
	fmt.Fprintf(w, "graph: %s (n=%d, |E|=%d), homes: %v, protocol: %s, seed: %d\n",
		*family, g.N(), g.M(), homes, *protocol, *seed)

	if *analyze {
		an, err := repro.Analyze(g, homes)
		if err != nil {
			return err
		}
		cayley := fmt.Sprint(an.Cayley)
		if !an.CayleyChecked {
			cayley = "undecided"
		}
		fmt.Fprintf(w, "analysis: class sizes %v, gcd %d; Cayley %s", an.Sizes, an.GCD, cayley)
		if an.Cayley {
			fmt.Fprintf(w, " (translation d = %d)", an.TranslationD)
		}
		if an.Thm21Checked {
			verdict := "election possible"
			if an.Impossible21 {
				verdict = "election impossible (Theorem 2.1)"
			}
			fmt.Fprintf(w, "; %s", verdict)
		}
		fmt.Fprintln(w)
	}

	cfg := repro.RunConfig{Seed: *seed, WakeAll: *wakeAll, UseHairOrdering: *hairs}
	var replayStrat *repro.ReplayStrategy
	var recorded repro.Schedule
	var replayInj *faults.Injector
	switch {
	case replayFile != nil:
		sched, err := replayFile.Decode()
		if err != nil {
			return err
		}
		replayStrat = repro.Replay(sched)
		cfg.Scheduler = replayStrat
		if replayFile.FaultPlan != "" {
			plan, err := faults.DecodePlanString(replayFile.FaultPlan)
			if err != nil {
				return err
			}
			replayInj = faults.Replay(plan)
			cfg.Faults = replayInj
		}
	case *faultName != "" && *strategyName == "":
		// Fault injection needs the serializing scheduler; default to the
		// seeded random strategy rather than rejecting the invocation.
		*strategyName = "random"
		fallthrough
	case *strategyName != "":
		strat, err := adversary.NewStrategy(*strategyName, *seed, adversary.AgentClasses(g, homes))
		if err != nil {
			return err
		}
		cfg.Scheduler = strat
		if *recordPath != "" {
			cfg.RecordSchedule = &recorded
		}
	case *recordPath != "":
		return fmt.Errorf("-record requires -strategy")
	}
	var inj *faults.Injector
	if *faultName != "" && replayFile == nil {
		fseed := *faultSeed
		if fseed == 0 {
			fseed = *seed
		}
		inj, err = faults.New(*faultName, fseed, len(homes), homes)
		if err != nil {
			return err
		}
		cfg.Faults = inj
		fmt.Fprintf(w, "faults: strategy %s, fault seed %d, scheduler %s\n", *faultName, fseed, *strategyName)
	}
	var tele *repro.TelemetryRun
	if *timeline != "" {
		tele = repro.NewTelemetryRun()
		cfg.Telemetry = tele
	}
	// The run emits events under a whiteboard lock, so the sink does no
	// I/O: with -trace it appends each event to a slice, printed after the
	// run in emission order. With -timeline it also replays whiteboard
	// events as instant marks on the exported timeline, each at its own
	// timestamp.
	var (
		traceMu sync.Mutex
		events  []repro.TraceEvent
	)
	if *trace || tele != nil {
		cfg.Trace = func(e repro.TraceEvent) {
			if tele != nil && e.Kind != repro.EvMove {
				name := e.Kind.String()
				if e.Tag != "" {
					name += " " + e.Tag
				}
				tele.Instant(e.Agent, name, e.Phase, e.At)
			}
			if *trace {
				traceMu.Lock()
				events = append(events, e)
				traceMu.Unlock()
			}
		}
	}
	var res *repro.Result
	switch *protocol {
	case "elect":
		res, err = repro.RunElect(g, homes, cfg)
	case "cayley":
		res, err = repro.RunCayleyElect(g, homes, cfg)
	case "quantitative":
		res, err = repro.RunQuantitative(g, homes, cfg)
	case "petersen":
		res, err = repro.RunPetersenAdHoc(g, homes, cfg)
	case "gather":
		res, err = repro.RunGather(g, homes, cfg)
	default:
		return fmt.Errorf("unknown protocol %q", *protocol)
	}
	for _, e := range events {
		at := e.At.Round(time.Microsecond)
		switch e.Kind {
		case repro.EvMove:
			fmt.Fprintf(w, "%12v agent %d -> node %d\n", at, e.Agent, e.Node)
		case repro.EvWrite, repro.EvErase:
			fmt.Fprintf(w, "%12v agent %d %s %q at node %d\n", at, e.Agent, e.Kind, e.Tag, e.Node)
		default:
			fmt.Fprintf(w, "%12v agent %d %s %s\n", at, e.Agent, e.Kind, e.Tag)
		}
	}
	writeRecord := func() error {
		if cfg.RecordSchedule == nil {
			return nil
		}
		sf := &adversary.ScheduleFile{
			Family: *family, Size: *n, Homes: homes,
			Seed: *seed, Protocol: *protocol, WakeAll: *wakeAll, Hairs: *hairs,
			Strategy: *strategyName,
			Schedule: adversary.EncodeScheduleString(&recorded),
		}
		if inj != nil {
			sf.Fault = *faultName
			sf.FaultPlan = inj.Recorded().EncodeString()
		}
		if err := sf.WriteFile(*recordPath); err != nil {
			return err
		}
		fmt.Fprintf(w, "schedule (%d decisions) written to %s (replay with -replay)\n",
			recorded.Len(), *recordPath)
		return nil
	}
	if err != nil {
		if res != nil && res.CrashedCount() > 0 {
			// A fault run that wedged is a finding, not a tool failure:
			// print the manifest and still write the replay artifact so the
			// deadlock is diagnosable and reproducible.
			printFaults(w, res, inj, replayInj)
			if werr := writeRecord(); werr != nil {
				return werr
			}
		}
		return err
	}
	for i, o := range res.Outcomes {
		if !res.Survived(i) {
			fmt.Fprintf(w, "agent %d (home %d, %v): crashed (fault-injected)  [moves %d, accesses %d]\n",
				i, homes[i], res.Colors[i], res.Moves[i], res.Accesses[i])
			continue
		}
		line := fmt.Sprintf("agent %d (home %d, %v): %s", i, homes[i], res.Colors[i], o.Role)
		if o.Role == repro.RoleDefeated {
			line += fmt.Sprintf(", accepts leader %v", o.Leader)
		}
		fmt.Fprintf(w, "%s  [moves %d, accesses %d]\n", line, res.Moves[i], res.Accesses[i])
	}
	fmt.Fprintf(w, "total: %d moves, %d whiteboard accesses, %v wall clock\n",
		res.TotalMoves(), res.TotalAccesses(), res.Elapsed)
	printFaults(w, res, inj, replayInj)
	if replayStrat != nil {
		if d := replayStrat.Divergences(); d > 0 {
			fmt.Fprintf(w, "replay: %d scheduling divergences (log did not match this build/run)\n", d)
		} else {
			fmt.Fprintln(w, "replay: schedule followed exactly (0 divergences)")
		}
	}
	if err := writeRecord(); err != nil {
		return err
	}
	if tele != nil {
		tot := tele.Totals()
		for p, name := range telemetry.PhaseNames() {
			if tot.Moves[p] == 0 && tot.Accesses[p] == 0 && tot.Writes[p] == 0 && tot.Erases[p] == 0 {
				continue
			}
			fmt.Fprintf(w, "  phase %-12s moves=%d accesses=%d writes=%d erases=%d\n",
				name, tot.Moves[p], tot.Accesses[p], tot.Writes[p], tot.Erases[p])
		}
		f, err := os.Create(*timeline)
		if err != nil {
			return err
		}
		if err := repro.WriteChromeTrace(f, tele); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "timeline written to %s (open in Perfetto or chrome://tracing)\n", *timeline)
	}
	switch {
	case res.AgreedLeader():
		fmt.Fprintln(w, "result: a unique leader was elected and acknowledged")
	case res.AllUnsolvable():
		fmt.Fprintln(w, "result: all agents report the election unsolvable")
	case res.CrashedCount() > 0:
		fmt.Fprintln(w, "result: no unanimous verdict among survivors (crash-degraded run)")
	default:
		fmt.Fprintln(w, "result: MIXED outcomes (protocol contract violated)")
		return errMixed
	}
	return nil
}

// printFaults reports the fault manifest of a run, from whichever injector
// drove it (live or replayed). No-op for fault-free runs.
func printFaults(w io.Writer, res *repro.Result, inj, replayInj *faults.Injector) {
	active := inj
	if active == nil {
		active = replayInj
	}
	if active == nil {
		return
	}
	fmt.Fprintf(w, "faults: %s; %d agents crashed, %d lock takeovers\n",
		active.Recorded().Summary(), res.CrashedCount(), res.Takeovers)
	if replayInj != nil {
		if u := replayInj.Unapplied(); u > 0 {
			fmt.Fprintf(w, "faults: %d plan events never re-issued (replay drift)\n", u)
		} else {
			fmt.Fprintln(w, "faults: plan re-injected exactly (0 unapplied events)")
		}
	}
}
