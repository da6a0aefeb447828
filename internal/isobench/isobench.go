// Package isobench defines the canonical-engine benchmark kernels shared by
// the repo-root `go test -bench` benchmarks (bench_iso_test.go) and the
// BENCH_iso.json perf-trajectory generator (cmd/benchiso). Keeping the
// kernels in one place guarantees the JSON artifact and the interactive
// benchmarks measure exactly the same work (DESIGN.md §8, EXPERIMENTS.md).
package isobench

import (
	"testing"

	"repro/internal/elect"
	"repro/internal/graph"
	"repro/internal/iso"
	"repro/internal/order"
)

// Case is one named benchmark kernel.
type Case struct {
	Name string
	Run  func(b *testing.B)
}

// analyzeC32 is the headline workload of the perf trajectory: the full
// centralized analysis (classes, ≺ order, Cayley recognition, Theorem 2.1
// oracle) of the 32-cycle with four spread home-bases. The documented target
// is ≥5× over the pre-optimization engine on this kernel.
func analyzeC32(b *testing.B) {
	g := graph.Cycle(32)
	homes := []int{0, 8, 16, 24}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := elect.Analyze(g, homes, order.Direct); err != nil {
			b.Fatal(err)
		}
	}
}

// AnalyzeC32 runs the headline kernel under the optimized engine.
func AnalyzeC32(b *testing.B) { analyzeC32(b) }

// AnalyzeC32Reference runs the headline kernel with Canonical and
// CanonicalSparse routed through the frozen pre-optimization engine, giving
// the perf-trajectory baseline.
func AnalyzeC32Reference(b *testing.B) {
	iso.SetReferenceEngine(true)
	defer iso.SetReferenceEngine(false)
	analyzeC32(b)
}

func canonical(c *iso.Colored) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			iso.CanonicalWord(c)
		}
	}
}

// surrounding returns the C32 surrounding digraph kernel input: the
// bicolored digraph of one class that the hair order keys, through its hat
// transformation, once per class.
func surrounding() *iso.Colored {
	g := graph.Cycle(32)
	return order.Surrounding(g, elect.BlackColors(32, []int{0, 8, 16, 24}), 0)
}

// analyzeRR3200 is the mid-size kernel: the full analysis of a rigid random
// 3-regular graph on 200 nodes with homes at nodes 0, 1 and 2. COMPUTE &
// ORDER runs one sparse whole-graph search, whose labeling ranks the 200
// classes; the Cayley test rejects the graph by its distance counts before
// any search, and Theorem 2.1 needs none (gcd 1).
func analyzeRR3200(b *testing.B) {
	g := graph.RandomRegular(200, 3, 1)
	homes := []int{0, 1, 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := elect.Analyze(g, homes, order.Direct); err != nil {
			b.Fatal(err)
		}
	}
}

// Cases lists the kernels in report order. The first two form the speedup
// pair (reference vs optimized Analyze(C32)); the rest track the engine on
// representative shapes: a mid-size rigid analysis, cycles, hypercubes,
// Petersen, tori, a surrounding digraph, and the refinement pass alone.
func Cases() []Case {
	return []Case{
		{"AnalyzeC32Reference", AnalyzeC32Reference},
		{"AnalyzeC32", AnalyzeC32},
		{"AnalyzeRR3_200", analyzeRR3200},
		{"CanonicalC32Surrounding", canonical(surrounding())},
		{"CanonicalC64", canonical(iso.FromGraph(graph.Cycle(64), nil))},
		{"CanonicalQ4", canonical(iso.FromGraph(graph.Hypercube(4), nil))},
		{"CanonicalPetersen", canonical(iso.FromGraph(graph.Petersen(), nil))},
		{"CanonicalTorus4x4", canonical(iso.FromGraph(graph.Torus(4, 4), nil))},
		{"EquitablePartitionQ5", func(b *testing.B) {
			c := iso.FromGraph(graph.Hypercube(5), nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				iso.EquitablePartition(c)
			}
		}},
		{"OrderClassesTorus4x6", func(b *testing.B) {
			g := graph.Torus(4, 6)
			colors := elect.BlackColors(24, []int{0, 12})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				order.ComputeAndOrder(g, colors, order.Direct)
			}
		}},
	}
}

// sparseCanonical returns a kernel canonicalizing the graph mk builds; the
// graph is built once, outside the timed loop.
func sparseCanonical(mk func() *graph.Graph) func(b *testing.B) {
	return func(b *testing.B) {
		sp := iso.SparseFromGraph(mk(), nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			iso.CanonicalSparse(sp)
		}
	}
}

// twinBlowup is the twin-heavy multigraph kernel input: the 4-fold blowup of
// C_32 with every edge doubled — 32 classes of 4 mutually interchangeable
// twins, multiplicity-2 arcs throughout, automorphism group of order at
// least (4!)^32·64. Orbit pruning must collapse the factorial fan-out at
// every level of the search.
func twinBlowup() *graph.Graph {
	base := graph.BlowupCycle(32, 4)
	b := graph.NewBuilder(base.N())
	for _, e := range base.EdgeEndpoints() {
		b.AddEdge(e[0], e[1])
		b.AddEdge(e[0], e[1])
	}
	return b.Graph()
}

// LargeCases lists the large-family kernels (10³–10⁵ nodes) exercising the
// word-packed sparse engine: full canonical searches at n ≈ 4·10³ and the
// 10⁵-node refinement and Analyze workloads. Kept out of Cases so
// `benchiso -quick` and the default `go test -bench` stay fast; `benchiso`
// without -quick and `make bench-iso-large` include them.
func LargeCases() []Case {
	return []Case{
		{"CanonicalSparseC4096", sparseCanonical(func() *graph.Graph { return graph.Cycle(4096) })},
		{"CanonicalSparseTorus64x64", sparseCanonical(func() *graph.Graph { return graph.Torus(64, 64) })},
		{"CanonicalSparseTwinBlowup", sparseCanonical(twinBlowup)},
		{"RefinePassRandReg100k", func(b *testing.B) {
			sp := iso.SparseFromGraph(graph.RandomRegular(100_000, 3, 1), nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				iso.SparseEquitablePartition(sp)
			}
		}},
		{"AnalyzeRandReg100k", func(b *testing.B) {
			g := graph.RandomRegular(100_000, 3, 1)
			homes := []int{0, 137, 4242, 99_999}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := elect.Analyze(g, homes, order.Direct); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}
