package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// metricSpec is one metric named in BENCHMARK.json.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a --trace 0 run prints, every workload alike:
// what a user of the workload's entry point sees. They are chosen to hold
// still on a shared host whose hypervisor steals up to a third of the CPU
// from one minute to the next (README.md): ops_per_s leaves the stolen
// time out of its seconds, ops_per_cpu_s counts the CPU the process
// received, and the bounded tail is p90, since stalls of a few
// milliseconds land in the slowest 1% of short operations. Raw wall-clock
// throughput and p99 are in the record line.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"ops_per_cpu_s", "1/cpu_s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer are the metrics a --trace 1 run prints. A layer the workload
// does not reach reads 0.
var perLayer = []metricSpec{
	{"analyze_p50_ms", "ms", "lower"},
	{"analyze_p99_ms", "ms", "lower"},
	{"elect_p50_ms", "ms", "lower"},
	{"elect_p99_ms", "ms", "lower"},
	{"serve.queue_wait_ms.p50", "ms", "lower"},
	{"serve.queue_wait_ms.p99", "ms", "lower"},
	{"serve.self_ms.p50", "ms", "lower"},
	{"serve.http_ms.p50", "ms", "lower"},
	{"serve.response_bytes.analyze", "bytes", "lower"},
	{"serve.shed", "count", "lower"},
	{"analysiscache.get_ms.p50", "ms", "lower"},
	{"analysiscache.key_ms.p50", "ms", "lower"},
	{"analysiscache.key_ms.p99", "ms", "lower"},
	{"analysiscache.hit_ratio", "ratio", "higher"},
	{"analysiscache.evictions", "count", "lower"},
	{"elect.analyze_ms.p50", "ms", "lower"},
	{"elect.analyze_ms.p99", "ms", "lower"},
	{"order.compute_ms.p50", "ms", "lower"},
	{"order.compute_ms.p99", "ms", "lower"},
	{"order.keys_computed", "count/op", "lower"},
	{"iso.searches", "count/op", "lower"},
	{"iso.nodes", "count/op", "lower"},
	{"iso.leaves", "count/op", "lower"},
	{"iso.orbit_prunes", "count/op", "higher"},
	{"iso.prefix_prunes", "count/op", "higher"},
	{"iso.parallel_searches", "count/op", "lower"},
	{"group.cayley_ms.p50", "ms", "lower"},
	{"group.cayley_ms.p99", "ms", "lower"},
	{"labeling.thm21_ms.p50", "ms", "lower"},
	{"labeling.thm21_ms.p99", "ms", "lower"},
	{"campaign.run_ms.p50", "ms", "lower"},
	{"campaign.run_ms.p99", "ms", "lower"},
	{"campaign.worker_busy_share", "ratio", "higher"},
	{"campaign.analysis_ms", "ms", "lower"},
	{"campaign.retries", "count", "lower"},
	{"sim.moves_per_run.p50", "count", "lower"},
	{"sim.ns_per_move", "ns", "lower"},
	{"sim.cpu_ms_per_run", "ms", "lower"},
	{"elect.phase_ms.mapdraw", "ms", "lower"},
	{"elect.phase_ms.order", "ms", "lower"},
	{"elect.phase_ms.agent-reduce", "ms", "lower"},
	{"elect.phase_ms.node-reduce", "ms", "lower"},
	{"elect.phase_ms.announce", "ms", "lower"},
	{"elect.phase_moves.mapdraw", "count", "lower"},
	{"elect.phase_moves.order", "count", "lower"},
	{"elect.phase_moves.agent-reduce", "count", "lower"},
	{"elect.phase_moves.node-reduce", "count", "lower"},
	{"elect.phase_moves.announce", "count", "lower"},
	{"ns_per_move.goroutine", "ns", "lower"},
	{"ns_per_move.scheduled", "ns", "lower"},
	{"ns_per_move.transformed", "ns", "lower"},
	{"ns_per_move.networked", "ns", "lower"},
	{"runtime.steps_per_election", "count", "lower"},
	{"runtime.allocs_per_move.goroutine", "count", "lower"},
	{"runtime.allocs_per_move.scheduled", "count", "lower"},
	{"runtime.allocs_per_move.transformed", "count", "lower"},
	{"runtime.allocs_per_move.networked", "count", "lower"},
	{"runtime.bytes_per_move.goroutine", "bytes", "lower"},
	{"runtime.bytes_per_move.scheduled", "bytes", "lower"},
	{"runtime.bytes_per_move.transformed", "bytes", "lower"},
	{"runtime.bytes_per_move.networked", "bytes", "lower"},
	{"runtime.frames_per_step.networked", "count", "lower"},
	{"runtime.frame_bytes_per_step.networked", "bytes", "lower"},
	{"process.cpu_ms_per_op", "ms", "lower"},
	{"process.gc_cpu_share", "ratio", "lower"},
	{"process.sched_latency_us.p99", "us", "lower"},
	{"process.steal_share", "ratio", "lower"},
	{"trace.overhead.ops_per_s", "ratio", "lower"},
	{"trace.overhead.latency_p50_ms", "ratio", "lower"},
}

// recordOnly are the figures of an untraced run's record line outside both
// lists: fail_ratio, which the result's attempted and failed counts carry,
// raw wall-clock throughput and the p99 latency.
var recordOnly = []metricSpec{
	{"fail_ratio", "ratio", "lower"},
	{"ops_per_wall_s", "1/s", "higher"},
	{"latency_p99_ms", "ms", "lower"},
}

// unitOf returns the unit of a named figure.
func unitOf(name string) string {
	for _, list := range [][]metricSpec{endToEnd, perLayer, recordOnly} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// fig is one measured figure; n is the sample count behind a percentile
// (0 for figures that are not sample statistics).
type fig struct {
	v float64
	n int
}

// figures are the named figures of a section or a report.
type figures map[string]fig

func (f figures) set(name string, v float64) { f[name] = fig{v: v} }

// pct sets name to the nearest-rank q-quantile of xs (sorting xs in
// place), with the sample count. An empty sample reads 0.
func (f figures) pct(name string, xs []float64, q float64) {
	f[name] = fig{v: quantile(xs, q), n: len(xs)}
}

// quantile is the nearest-rank q-quantile of xs, which it sorts in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// section is one timed run of a workload: the operations it completed,
// their latencies, the output checks, the process's resource use over the
// timed part and the workload's own figures.
type section struct {
	ops       int
	elapsed   time.Duration
	latencyMS []float64
	attempted int
	failed    int
	failures  []string
	usage     usage
	figs      figures
}

func newSection() *section { return &section{figs: figures{}} }

// maxFailures bounds the failure descriptions a report keeps.
const maxFailures = 20

// check counts one checked operation, failing it when msg is not empty.
func (s *section) check(msg string) {
	s.attempted++
	if msg != "" {
		s.fail(msg)
	}
}

// fail records a failed check without counting a new operation.
func (s *section) fail(msg string) {
	s.failed++
	if len(s.failures) < maxFailures {
		s.failures = append(s.failures, msg)
	}
}

// report is what one invocation prints.
type report struct {
	e         *env
	host      hostInfo
	start     usageSnapshot
	attempted int
	failed    int
	failures  []string
	figs      figures
	sections  []sectionRecord
	traceFile string
}

// sectionRecord is the contention record of one timed section.
type sectionRecord struct {
	Traced      bool    `json:"traced"`
	Ops         int     `json:"ops"`
	WallSeconds float64 `json:"wall_s"`
	CPUSeconds  float64 `json:"cpu_s"`
	StealShare  float64 `json:"steal_share"`
}

func newReport(e *env) *report {
	return &report{e: e, host: readHost(e.seed), start: takeSnapshot(), figs: figures{}}
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

// setup records the set-up times; setup_s is their median.
func (r *report) setup(seconds []float64) {
	r.figs.pct("setup_s", seconds, 0.5)
}

// addSection folds a section's checks and contention into the report.
func (r *report) addSection(s *section) {
	r.attempted += s.attempted
	r.failed += s.failed
	for _, f := range s.failures {
		if len(r.failures) < maxFailures {
			r.failures = append(r.failures, f)
		}
	}
	r.sections = append(r.sections, sectionRecord{
		Traced:      len(r.sections) > 0,
		Ops:         s.ops,
		WallSeconds: s.usage.wall.Seconds(),
		CPUSeconds:  s.usage.cpu.Seconds(),
		StealShare:  s.usage.stealShare(),
	})
}

// opsPerSecond is a section's throughput over the time the host ran it:
// operations completed per second of the section, less the share of the
// VM's CPU time the hypervisor stole. A change that leaves the workload's
// CPUs idle, such as one that serializes its workers, lowers it; a
// neighbour that steals them does not.
func opsPerSecond(s *section) float64 {
	return ratio(float64(s.ops), s.elapsed.Seconds()*(1-s.usage.stealShare()))
}

// endToEnd sets the end-to-end figures from the untraced section.
func (r *report) endToEnd(s *section) {
	r.figs.set("ops_per_s", opsPerSecond(s))
	r.figs.set("ops_per_cpu_s", ratio(float64(s.ops), s.usage.cpu.Seconds()))
	r.figs.set("ops_per_wall_s", ratio(float64(s.ops), s.elapsed.Seconds()))
	r.figs.pct("latency_p50_ms", s.latencyMS, 0.50)
	r.figs.pct("latency_p90_ms", s.latencyMS, 0.90)
	r.figs.pct("latency_p99_ms", s.latencyMS, 0.99)
	r.figs.set("peak_rss_mb", s.usage.peakRSS)
	r.figs.set("fail_ratio", ratio(float64(s.failed), float64(s.attempted)))
	for name, f := range s.figs {
		if unitOf(name) != "" {
			r.figs[name] = f
		}
	}
}

// perLayer sets the per-layer figures from the traced section, plus the
// tracing overhead against the untraced one.
func (r *report) perLayer(plain, traced *section) {
	for name, f := range traced.figs {
		r.figs[name] = f
	}
	ops := float64(traced.ops)
	u := traced.usage
	r.figs.set("process.cpu_ms_per_op", ratio(ms(u.cpu), ops))
	r.figs.set("process.gc_cpu_share", ratio(u.gcCPU, u.totalCPU))
	r.figs.set("process.sched_latency_us.p99", u.schedP99*1e6)
	r.figs.set("process.steal_share", u.stealShare())
	r.figs.set("iso.searches", ratio(float64(u.iso.Searches), ops))
	r.figs.set("iso.nodes", ratio(float64(u.iso.Nodes), ops))
	r.figs.set("iso.leaves", ratio(float64(u.iso.Leaves), ops))
	r.figs.set("iso.orbit_prunes", ratio(float64(u.iso.OrbitPrunes), ops))
	r.figs.set("iso.prefix_prunes", ratio(float64(u.iso.PrefixPrunes), ops))
	r.figs.set("iso.parallel_searches", ratio(float64(u.iso.ParallelSearches), ops))
	r.figs.set("order.keys_computed", ratio(float64(u.keys), ops))

	plainOps, tracedOps := opsPerSecond(plain), opsPerSecond(traced)
	r.figs.set("trace.overhead.ops_per_s", ratio(plainOps-tracedOps, plainOps))
	p50 := quantile(plain.latencyMS, 0.5)
	t50 := quantile(traced.latencyMS, 0.5)
	r.figs.set("trace.overhead.latency_p50_ms", ratio(t50-p50, p50))
}

// outMetric is one metric of the result line.
type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// recMetric is one figure of the record line.
type recMetric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// print writes the human-readable table, the record line and, last, the
// result line. The result carries every metric of the list the run's
// trace mode selects; an end-to-end metric the workload failed to measure
// is an error, a per-layer one reads 0 (the layer was not reached).
func (r *report) print(w io.Writer) error {
	list := endToEnd
	if r.e.traced {
		list = perLayer
	}
	out := make(map[string]outMetric, len(list))
	for _, m := range list {
		f, ok := r.figs[m.Name]
		if !ok && !r.e.traced {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("metric %s is not finite", m.Name)
		}
		out[m.Name] = outMetric{Value: f.v, Unit: m.Unit}
	}

	rec := make(map[string]recMetric, len(r.figs))
	names := make([]string, 0, len(r.figs))
	for name, f := range r.figs {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("figure %s is not finite", name)
		}
		rec[name] = recMetric{Value: f.v, Unit: unitOf(name), Samples: f.n}
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	mode := "untraced: end-to-end metrics"
	if r.e.traced {
		mode = "traced: per-layer metrics"
	}
	fmt.Fprintf(&b, "workload %s  seed %d  %s  (%d attempted, %d failed)\n",
		r.e.workload, r.e.seed, mode, r.attempted, r.failed)
	for _, name := range names {
		f := r.figs[name]
		samples := ""
		if f.n > 0 {
			samples = fmt.Sprintf("  (n=%d)", f.n)
		}
		fmt.Fprintf(&b, "  %-40s %14.6g %-8s%s\n", name, f.v, unitOf(name), samples)
	}
	for _, f := range r.failures {
		fmt.Fprintf(&b, "  FAILED: %s\n", f)
	}
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}

	end := takeSnapshot()
	record := map[string]any{"record": map[string]any{
		"workload":   r.e.workload,
		"seed":       r.e.seed,
		"seconds":    r.e.duration.Seconds(),
		"trace":      r.e.traced,
		"host":       r.host,
		"contention": contentionBetween(r.start, end),
		"sections":   r.sections,
		"metrics":    rec,
		"attempted":  r.attempted,
		"failed":     r.failed,
		"fail_ratio": ratio(float64(r.failed), float64(r.attempted)),
		"failures":   r.failures,
		"trace_file": r.traceFile,
	}}
	enc := json.NewEncoder(w)
	if err := enc.Encode(record); err != nil {
		return err
	}
	return enc.Encode(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]outMetric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, out})
}
