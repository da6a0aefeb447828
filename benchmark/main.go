// Command benchmark is the repository's benchmark. It drives four
// workloads through the program's own entry points — electd's server
// (serve.New, serve.Listen), campaign.Execute and runtime.New(...).Run —
// checks their outputs, and prints the end-to-end metrics of an untraced
// run or, with --trace 1, the per-layer metrics of a traced run. Every
// layer is measured from outside, by timing the benchmark's own calls into
// it or through the seams the program already exposes. README.md in this
// directory lists the workloads, the metrics and what each one measures.
//
// Run it from the root of the repository:
//
//	bash benchmark/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object,
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// and the line before it is the full record of the run: every figure with
// its unit and sample count, the host and the contention it ran under.
// The exit code is 1 when an output check fails and 2 when the benchmark
// itself cannot run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/serve"
)

// Seeds recorded for claims: DefaultSeed is the workload seed when none is
// given; HeldOutSeed is kept for checking a claimed gain on inputs the
// change was not tuned on.
const (
	DefaultSeed = 1
	HeldOutSeed = 7919
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, runs one workload and prints its result.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload: "+workloadList())
		seed     = fs.Int64("seed", DefaultSeed, "workload seed (inputs are a function of it)")
		seconds  = fs.Int("seconds", 20, "length of each timed section, in seconds")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
		out      = fs.String("out", ".bench_build/traces", "directory for the traced run's Chrome trace")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: need --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	e := &env{
		workload: *workload,
		seed:     *seed,
		duration: time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		traceDir: *out,
	}
	rep, err := runWorkload(e)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if !rep.correct() {
		fmt.Fprintf(stderr, "benchmark: %d of %d operations failed their output check\n", rep.failed, rep.attempted)
		return 1
	}
	return 0
}

// env is one invocation: the workload, its seed, the section length and
// the knobs the self-test turns to run at a tiny size.
type env struct {
	workload string
	seed     int64
	duration time.Duration
	traced   bool
	traceDir string
	// tiny shrinks every workload's inputs for the self-test, and sets up
	// once.
	tiny bool
	// serveConfig, when set, edits the server configuration before
	// serve.New; the self-test injects a wrong analysis through it.
	serveConfig func(*serve.Config)
}

// workload is one benchmark workload. setup brings the system up and is
// timed for setup_s; measure runs one timed section and checks its
// outputs; teardown stops everything setup started.
type workload interface {
	setup(rc *recorder) error
	measure(d time.Duration, rc *recorder) (*section, error)
	teardown() error
}

// Set-up runs at least setupRuns times and then, while its runs add up to
// less than setupBudget, up to setupMaxRuns times: a median over many
// runs keeps a set-up of milliseconds steady on a shared host.
const (
	setupRuns    = 11
	setupBudget  = time.Second
	setupMaxRuns = 101
)

// workloads maps each name to its constructor, which generates the inputs
// from the seed (untimed).
var workloads = map[string]func(*env) (workload, error){
	"serve-mix":    newServeMix,
	"analyze-cold": newAnalyzeCold,
	"campaign":     newCampaign,
	"backends":     newBackends,
}

func workloadList() string {
	return "serve-mix, analyze-cold, campaign, backends"
}

// runWorkload generates the inputs, sets up setupRuns or more times
// (timing each), runs the untraced section on the last set-up and, when
// traced, a second traced section on a fresh set-up.
func runWorkload(e *env) (*report, error) {
	mk, ok := workloads[e.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", e.workload, workloadList())
	}
	rep := newReport(e)
	w, err := mk(e)
	if err != nil {
		return nil, fmt.Errorf("%s: inputs: %w", e.workload, err)
	}
	var setups []float64
	spent := 0.0
	for {
		start := time.Now()
		if err := w.setup(nil); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", e.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		spent += setups[len(setups)-1]
		if n := len(setups); e.tiny || n >= setupRuns && (n >= setupMaxRuns || spent >= setupBudget.Seconds()) {
			break
		}
		if err := w.teardown(); err != nil {
			return nil, fmt.Errorf("%s: teardown: %w", e.workload, err)
		}
	}
	rep.setup(setups)
	plain, err := w.measure(e.duration, nil)
	err = errors.Join(err, w.teardown())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.workload, err)
	}
	rep.addSection(plain)
	rep.endToEnd(plain)
	if !e.traced {
		return rep, nil
	}

	rc := newRecorder()
	if err := w.setup(rc); err != nil {
		return nil, fmt.Errorf("%s: traced setup: %w", e.workload, err)
	}
	traced, err := w.measure(e.duration, rc)
	err = errors.Join(err, w.teardown())
	if err != nil {
		return nil, fmt.Errorf("%s: traced: %w", e.workload, err)
	}
	rep.addSection(traced)
	rep.perLayer(plain, traced)
	path, err := rc.writeChromeTrace(e.traceDir, fmt.Sprintf("%s-seed%d.trace.json", e.workload, e.seed))
	if err != nil {
		return nil, fmt.Errorf("%s: chrome trace: %w", e.workload, err)
	}
	rep.traceFile = path
	return rep, nil
}
