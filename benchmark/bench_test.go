package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/elect"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/serve"
)

// benchmarkFile is BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestCatalogMatchesBenchmarkFile pins the metric lists the program prints
// to the ones BENCHMARK.json names, and its workloads to the program's.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	strip := func(ms []metricSpec) []metricSpec {
		out := make([]metricSpec, len(ms))
		for i, m := range ms {
			out[i] = metricSpec{Name: m.Name, Unit: m.Unit, Better: m.Better}
		}
		return out
	}
	if got := strip(bf.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json\n%v\nprogram prints\n%v", got, endToEnd)
	}
	if got := strip(bf.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json\n%v\nprogram prints\n%v", got, perLayer)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the program does not have", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names %v, the program has %d workloads", names, len(workloads))
	}
}

// tinyEnv runs a workload at its smallest size.
func tinyEnv(t *testing.T, workload string, traced bool) *env {
	return &env{
		workload: workload,
		seed:     3,
		duration: 200 * time.Millisecond,
		traced:   traced,
		traceDir: t.TempDir(),
		tiny:     true,
	}
}

// result is the last line a run prints.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

// runTiny runs a workload at tiny size and parses its output.
func runTiny(t *testing.T, e *env) (result, string) {
	t.Helper()
	rep, err := runWorkload(e)
	if err != nil {
		t.Fatalf("%s: %v", e.workload, err)
	}
	var out bytes.Buffer
	if err := rep.print(&out); err != nil {
		t.Fatalf("%s: print: %v", e.workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line %q: %v", e.workload, lines[len(lines)-1], err)
	}
	return res, out.String()
}

// TestWorkloadsPrintEveryMetric runs every workload untraced and traced at
// a tiny size: each must pass its output checks and print every metric of
// BENCHMARK.json with its unit.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			res, out := runTiny(t, tinyEnv(t, w.Name, traced))
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, out)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s in %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s reads %v", w.Name, m.Name, got.Value)
				}
			}
			if traced && w.Name == "analyze-cold" && res.Metrics["analysiscache.hit_ratio"].Value != 0 {
				t.Errorf("analyze-cold: analysiscache.hit_ratio = %v, want 0", res.Metrics["analysiscache.hit_ratio"].Value)
			}
		}
	}
}

// wrongVerdict is a serve.Config.Analyze stand-in that reports the real
// analysis with its gcd off by one: a verdict the checks must catch.
func wrongVerdict(ctx context.Context, g *graph.Graph, homes []int) (*elect.Analysis, error) {
	an, err := elect.AnalyzeCtx(ctx, g, homes, order.Direct)
	if err != nil {
		return nil, err
	}
	bad := *an
	bad.GCD++
	return &bad, nil
}

// TestWrongVerdictFails injects a wrong analysis into the server: the
// served verdicts must be counted in fail_ratio and the run must not pass.
func TestWrongVerdictFails(t *testing.T) {
	for _, w := range []string{"serve-mix", "analyze-cold"} {
		e := tinyEnv(t, w, false)
		e.serveConfig = func(c *serve.Config) { c.Analyze = wrongVerdict }
		res, out := runTiny(t, e)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s with a wrong verdict: correct=%v failed=%d of %d\n%s", w, res.Correct, res.Failed, res.Attempted, out)
		}
		var rec struct {
			Record struct {
				FailRatio float64 `json:"fail_ratio"`
			} `json:"record"`
		}
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Record.FailRatio <= 0 {
			t.Errorf("%s with a wrong verdict: fail_ratio = %v", w, rec.Record.FailRatio)
		}
	}
}

// TestColdCorpusRunsOut runs analyze-cold longer than its corpus lasts:
// the section ends when the last instance is served, without an error.
func TestColdCorpusRunsOut(t *testing.T) {
	e := tinyEnv(t, "analyze-cold", false)
	w, err := newAnalyzeCold(e)
	if err != nil {
		t.Fatal(err)
	}
	corpus := len(w.(*analyzeCold).corpus)
	if err := w.setup(nil); err != nil {
		t.Fatal(err)
	}
	d := time.Minute
	s, err := w.measure(d, nil)
	if err := w.teardown(); err != nil {
		t.Error(err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if s.ops != corpus || s.failed != 0 || s.elapsed >= d {
		t.Errorf("section: %d ops of a %d-instance corpus, %d failed, %v elapsed", s.ops, corpus, s.failed, s.elapsed)
	}
}

// TestRunExitCodes covers the command line: an unknown workload or a bad
// flag is an error exit without a result line.
func TestRunExitCodes(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "campaign", "--trace", "2"},
		{"--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("run(%v) = %d with stdout %q, want 2 and nothing printed", args, code, stdout.String())
		}
	}
}
