// Command benchiso records the canonical-engine perf trajectory: it runs the
// shared benchmark kernels of internal/isobench through testing.Benchmark and
// writes BENCH_iso.json — per-kernel ns/op, allocs/op and bytes/op, plus the
// headline speedup of the optimized engine over the frozen pre-optimization
// reference on Analyze(C32), against the documented ≥5× target.
//
// Usage:
//
//	benchiso [-o BENCH_iso.json] [-benchtime 1s] [-smoke] [-quick] [-gate 5]
//
// -smoke runs every kernel once (CI uses it under -race so the artifact step
// stays fast); single-iteration timings are noisy, so a smoke report is
// flagged as such and never enforces the speedup target. -quick skips the
// large-family kernels (isobench.LargeCases — the 10³–10⁵-node sparse-engine
// workloads) for fast local iteration. -gate sets the required Analyze(C32)
// speedup of the optimized engine over the frozen reference; a full run
// exits nonzero when the measured speedup falls below it (CI enforces 15).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/isobench"
)

// benchResult is one kernel's measurement.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// report is the BENCH_iso.json schema.
type report struct {
	// Speedup compares the reference vs optimized Analyze(C32) kernels —
	// the documented perf-trajectory headline (DESIGN.md §8).
	Speedup struct {
		Kernel        string  `json:"kernel"`
		ReferenceNsOp float64 `json:"reference_ns_per_op"`
		OptimizedNsOp float64 `json:"optimized_ns_per_op"`
		Speedup       float64 `json:"speedup"`
		Target        float64 `json:"target"`
		MeetsTarget   bool    `json:"meets_target"`
	} `json:"speedup"`
	Benchmarks []benchResult `json:"benchmarks"`
	Smoke      bool          `json:"smoke,omitempty"`
	GoMaxProcs int           `json:"gomaxprocs"`
}

func main() {
	out := flag.String("o", "BENCH_iso.json", "output file")
	benchtime := flag.Duration("benchtime", time.Second, "target run time per kernel")
	smoke := flag.Bool("smoke", false, "single iteration per kernel (fast CI smoke; timings are noisy)")
	quick := flag.Bool("quick", false, "skip the large-family kernels (fast local iteration)")
	gate := flag.Float64("gate", 5.0, "required Analyze(C32) speedup over the reference engine")
	testing.Init() // register test.* flags so test.benchtime is settable
	flag.Parse()
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		fail(err)
	}

	var rep report
	rep.Smoke = *smoke
	rep.GoMaxProcs = runtime.GOMAXPROCS(0)
	cases := isobench.Cases()
	if !*quick {
		cases = append(cases, isobench.LargeCases()...)
	}
	byName := map[string]benchResult{}
	for _, c := range cases {
		r := measure(c, *smoke)
		rep.Benchmarks = append(rep.Benchmarks, r)
		byName[c.Name] = r
		fmt.Printf("%-30s %12.0f ns/op %8d B/op %6d allocs/op (%d iters)\n",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, r.Iterations)
	}
	ref, opt := byName["AnalyzeC32Reference"], byName["AnalyzeC32"]
	rep.Speedup.Kernel = "Analyze(C32, homes 0/8/16/24)"
	rep.Speedup.ReferenceNsOp = ref.NsPerOp
	rep.Speedup.OptimizedNsOp = opt.NsPerOp
	rep.Speedup.Target = *gate
	if opt.NsPerOp > 0 {
		rep.Speedup.Speedup = ref.NsPerOp / opt.NsPerOp
	}
	rep.Speedup.MeetsTarget = rep.Speedup.Speedup >= rep.Speedup.Target
	note := ""
	if *smoke {
		note = " [smoke run: noisy]"
	}
	fmt.Printf("speedup on %s: %.1fx (target %.0fx)%s\n",
		rep.Speedup.Kernel, rep.Speedup.Speedup, rep.Speedup.Target, note)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("written to %s\n", *out)
	if !*smoke && !rep.Speedup.MeetsTarget {
		fmt.Fprintf(os.Stderr, "benchiso: speedup %.1fx below the %.0fx target\n",
			rep.Speedup.Speedup, rep.Speedup.Target)
		os.Exit(1)
	}
}

func measure(c isobench.Case, smoke bool) benchResult {
	if smoke {
		// One hand-timed iteration; testing.Benchmark always calibrates
		// toward benchtime, which a -race CI smoke cannot afford.
		start := time.Now()
		c.Run(&testing.B{N: 1})
		return benchResult{Name: c.Name, Iterations: 1, NsPerOp: float64(time.Since(start))}
	}
	res := testing.Benchmark(c.Run)
	return benchResult{
		Name:        c.Name,
		Iterations:  res.N,
		NsPerOp:     float64(res.T) / float64(res.N),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchiso:", err)
	os.Exit(1)
}
