package repro

// Benchmarks regenerating the paper's table and figures (DESIGN.md §4):
//
//	E1 Table 1     — BenchmarkTable1*
//	E2 Figure 2ab  — BenchmarkFig2Views
//	E3 Figure 2c   — BenchmarkFig2cViews
//	E4 Theorem 3.1 — BenchmarkElect* (per family; reports moves/(r·|E|))
//	E5 Theorem 4.1 — BenchmarkCayley*
//	E6 Figure 5    — BenchmarkPetersen*
//	E7 Section 1.3 — BenchmarkAnonymousLockstep
//	E8 cost bound  — BenchmarkMovesScaling* (reports moves/(r·|E|))
//
// plus the DESIGN.md §5 ablations: hair vs direct ordering, canonical vs
// brute-force labeling, refinement views vs explicit trees, map drawing.

import (
	"fmt"
	"testing"

	"repro/internal/campaign"
	"repro/internal/elect"
	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/iso"
	"repro/internal/labeling"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/view"
)

// benchRun measures one protocol on one instance across b.N adversary seeds,
// executed as a single-worker campaign work list (seeds 1..b.N, analysis
// skipped) so the benchmarks and the experiment tables share one engine and
// the per-op time stays the pure protocol runtime.
func benchRun(b *testing.B, g *graph.Graph, homes []int, kind campaign.ProtocolKind) {
	b.Helper()
	b.ReportAllocs()
	runs := make([]campaign.Run, b.N)
	for i := range runs {
		runs[i] = campaign.Run{
			Instance: "bench", G: g, Homes: homes, Seed: int64(i + 1), Protocol: kind,
		}
	}
	b.ResetTimer()
	rep, err := campaign.ExecuteRuns(runs, campaign.Options{Workers: 1, NoAnalysis: true})
	if err != nil {
		b.Fatal(err)
	}
	last := rep.Results[len(rep.Results)-1]
	if last.Err != "" {
		b.Fatal(last.Err)
	}
	b.ReportMetric(last.Ratio, "moves/(r|E|)")
}

// --- E1: Table 1 ---

func BenchmarkTable1QualitativeK2(b *testing.B) {
	benchRun(b, graph.Path(2), []int{0, 1}, campaign.ProtoElect)
}

func BenchmarkTable1QuantitativeK2(b *testing.B) {
	benchRun(b, graph.Path(2), []int{0, 1}, campaign.ProtoQuantitative)
}

func BenchmarkTable1QuantitativePetersen(b *testing.B) {
	benchRun(b, graph.Petersen(), []int{0, 1}, campaign.ProtoQuantitative)
}

// --- E2 / E3: Figure 2 ---

func BenchmarkFig2Views(b *testing.B) {
	g := graph.Path(3)
	l := labeling.Fig2aLabeling()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := view.ComputeClasses(g, l, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2cViews(b *testing.B) {
	g := graph.Fig2c()
	l := labeling.Fig2cLabeling()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := view.ComputeClasses(g, l, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4: Protocol ELECT per family (Theorem 3.1) ---

func BenchmarkElectCycleSolvable(b *testing.B) {
	benchRun(b, graph.Cycle(6), []int{0, 2}, campaign.ProtoElect)
}

func BenchmarkElectCycleUnsolvable(b *testing.B) {
	benchRun(b, graph.Cycle(6), []int{0, 3}, campaign.ProtoElect)
}

func BenchmarkElectStarNodeReduce(b *testing.B) {
	benchRun(b, graph.Star(4), []int{1, 2, 3}, campaign.ProtoElect)
}

func BenchmarkElectHypercube(b *testing.B) {
	benchRun(b, graph.Hypercube(3), []int{0, 1, 3}, campaign.ProtoElect)
}

func BenchmarkElectRandom10(b *testing.B) {
	benchRun(b, graph.RandomConnected(10, 6, 13), []int{0, 2, 5, 8}, campaign.ProtoElect)
}

// --- E5: the Cayley decision (Theorem 4.1) ---

func BenchmarkCayleyElectQ3(b *testing.B) {
	benchRun(b, graph.Hypercube(3), []int{0, 1, 3}, campaign.ProtoCayley)
}

func BenchmarkCayleyDecisionTorus(b *testing.B) {
	g := graph.Torus(3, 3)
	black := make([]int, g.N())
	black[0], black[4] = 1, 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := elect.CayleyTranslationCount(g, black, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCayleyRecognizePetersenNegative(b *testing.B) {
	g := graph.Petersen()
	black := make([]int, 10)
	black[0], black[1] = 1, 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		isCayley, _, err := elect.CayleyTranslationCount(g, black, 0)
		if err != nil {
			b.Fatal(err)
		}
		if isCayley {
			b.Fatal("Petersen recognized as Cayley")
		}
	}
}

// --- E6: Figure 5 ---

func BenchmarkPetersenElectFails(b *testing.B) {
	benchRun(b, graph.Petersen(), []int{0, 1}, campaign.ProtoElect)
}

func BenchmarkPetersenAdHoc(b *testing.B) {
	benchRun(b, graph.Petersen(), []int{0, 1}, campaign.ProtoPetersen)
}

// --- E7: Section 1.3 lockstep ---

// BenchmarkAnonymousLockstep times E7 whole: the C3 and C6 lockstep runs on
// the scheduled backend, the trace self-check and the rendered table.
func BenchmarkAnonymousLockstep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if out, err := exp.RunAnonymousExperiment(); err != nil {
			b.Fatalf("%v\n%s", err, out)
		}
	}
}

// --- E8: move scaling O(r·|E|) ---

func BenchmarkMovesScaling(b *testing.B) {
	for _, n := range []int{6, 12, 24} {
		homes := []int{0, n / 3, 2 * n / 3}
		b.Run(fmt.Sprintf("cycle-n%d-r3", n), func(b *testing.B) {
			benchRun(b, graph.Cycle(n), homes, campaign.ProtoElect)
		})
	}
	for _, r := range []int{2, 4, 8} {
		homes := make([]int, r)
		for i := range homes {
			homes[i] = 2 * i
		}
		b.Run(fmt.Sprintf("cycle-n16-r%d", r), func(b *testing.B) {
			benchRun(b, graph.Cycle(16), homes, campaign.ProtoElect)
		})
	}
}

// BenchmarkCampaignParallel measures the campaign engine end to end: a
// 20-run work list (two cycle instances × 10 seeds) through the worker
// pool with the shared analysis cache, per-op = one whole campaign.
func BenchmarkCampaignParallel(b *testing.B) {
	spec := campaign.Spec{
		Families: []campaign.FamilySpec{
			{Family: "cycle", Sizes: []int{9, 12}, Placement: "adjacent", R: 3},
		},
		Seeds:    campaign.SeedRange{From: 1, To: 10},
		Protocol: campaign.ProtoElect,
	}
	runs, err := spec.Expand()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := campaign.ExecuteRuns(runs, campaign.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Summary.Errors > 0 || rep.Summary.Mismatches > 0 {
			b.Fatalf("campaign failed: %+v", rep.Summary.Outcomes)
		}
	}
}

// --- Ablations (DESIGN.md §5) ---

func BenchmarkOrderingDirect(b *testing.B) {
	g := graph.Petersen()
	colors := elect.BlackColors(10, []int{0, 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		order.ComputeAndOrder(g, colors, order.Direct)
	}
}

func BenchmarkOrderingHairs(b *testing.B) {
	g := graph.Petersen()
	colors := elect.BlackColors(10, []int{0, 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		order.ComputeAndOrder(g, colors, order.Hairs)
	}
}

func BenchmarkCanonicalSearch(b *testing.B) {
	sp := iso.SparseFromGraph(graph.Complete(7), nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		iso.CanonicalSparse(sp)
	}
}

func BenchmarkCanonicalBrute(b *testing.B) {
	c := iso.NewColored(7) // K7
	for u := range c.Adj {
		for v := range c.Adj[u] {
			if u != v {
				c.Adj[u][v] = 1
			}
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		iso.BruteCanonicalWord(c)
	}
}

func BenchmarkViewsRefinement(b *testing.B) {
	g := graph.Hypercube(4)
	l := graph.PortLabeling(g)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := view.ComputeClasses(g, l, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkViewsExplicitTree(b *testing.B) {
	g := graph.Hypercube(3)
	l := graph.PortLabeling(g)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		view.BuildTree(g, l, nil, 0, 5)
	}
}

func BenchmarkMapDraw(b *testing.B) {
	g := graph.Hypercube(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := sim.Run(sim.Config{Graph: g, Homes: []int{0}, Seed: int64(i), WakeAll: true},
			func(a *sim.Agent) (sim.Outcome, error) {
				_, err := elect.MapDraw(a)
				return sim.Outcome{}, err
			})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThm21Oracle measures the exact symmetric-labeling decision.
func BenchmarkThm21Oracle(b *testing.B) {
	g := graph.Cycle(8)
	colors := elect.BlackColors(8, []int{0, 4})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := labeling.ExistsSymmetricLabeling(g, colors, 0); err != nil {
			b.Fatal(err)
		}
	}
}
