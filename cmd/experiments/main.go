// Command experiments regenerates every table and figure of the paper plus
// the validation experiments of DESIGN.md §4: Table 1, Figures 1, 2(a,b),
// 2(c) and 5, the Theorem 3.1 correctness/cost/ablation tables, the
// Theorem 4.1 Cayley sweep, the shared-home extension sweep, and the
// Section 5 cost-degradation comparison (E1–E12).
//
// Usage:
//
//	experiments [-e all|table1|fig2ab|fig2c|elect|cayley|petersen|anonymous|cost|ablation|shared|degradation|fig1] [-seed N] [-stats]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/exp"
	"repro/internal/iso"
	"repro/internal/order"
	"repro/internal/prof"
)

func main() {
	which := flag.String("e", "all", "experiment to run: all, table1, fig2ab, fig2c, elect, cayley, petersen, anonymous, cost, ablation, shared, degradation, fig1")
	seed := flag.Int64("seed", 1, "adversary seed for the simulated runs")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	stats := flag.Bool("stats", false, "print canonical-search and class-key counters after the experiments")
	flag.Parse()

	stopProf := prof.Start(*cpuprofile, *memprofile)
	defer stopProf()
	isoBefore, keysBefore := iso.Stats(), order.KeysComputed()

	type experiment struct {
		id, title string
		run       func() (string, error)
	}
	experiments := []experiment{
		{"table1", "E1 — Table 1: election feasibility per agent model", func() (string, error) {
			out, _, err := exp.Table1(*seed)
			return out, err
		}},
		{"fig2ab", "E2 — Figure 2(a,b): quantitative vs qualitative labelings", exp.Fig2AB},
		{"fig2c", "E3 — Figure 2(c): equal views, singleton label classes", exp.Fig2C},
		{"elect", "E4 — Theorem 3.1: Protocol ELECT correctness and cost", func() (string, error) {
			out, _, err := exp.RunElectExperiment(*seed)
			return out, err
		}},
		{"cayley", "E5 — Theorem 4.1: effectual election on Cayley graphs", func() (string, error) {
			out, _, err := exp.RunCayleyExperiment(*seed)
			return out, err
		}},
		{"petersen", "E6 — Figure 5: the Petersen counterexample", func() (string, error) {
			return exp.RunPetersenExperiment(*seed)
		}},
		{"anonymous", "E7 — Section 1.3: anonymous agents cannot elect", exp.RunAnonymousExperiment},
		{"cost", "E8 — Theorem 3.1: moves scale as O(r·|E|)", func() (string, error) {
			out, _, err := exp.RunCostExperiment(*seed)
			return out, err
		}},
		{"ablation", "E9 — ablation: literal Figure 3 loops vs the no-op-phase skip", func() (string, error) {
			return exp.RunSkipAblation(*seed)
		}},
		{"shared", "E10 — extension: several agents per starting node (Section 1.2)", func() (string, error) {
			return exp.RunSharedHomesExperiment(*seed)
		}},
		{"degradation", "E11 — Section 5's question: qualitative vs quantitative cost", func() (string, error) {
			out, _, err := exp.RunDegradationExperiment(*seed)
			return out, err
		}},
		{"fig1", "E12 — Figure 1: agents as messages (one protocol, four backends)", func() (string, error) {
			return exp.RunFig1Experiment(*seed)
		}},
	}

	failed := false
	ran := false
	for _, e := range experiments {
		if *which != "all" && *which != e.id {
			continue
		}
		ran = true
		fmt.Printf("==== %s ====\n", e.title)
		out, err := e.run()
		fmt.Print(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s FAILED: %v\n", e.id, err)
			failed = true
		}
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *which)
		stopProf()
		os.Exit(2)
	}
	if *stats {
		is := iso.Stats().Sub(isoBefore)
		fmt.Printf("iso search: %d searches, %d nodes, %d leaves, prunes orbit=%d prefix=%d\n",
			is.Searches, is.Nodes, is.Leaves, is.OrbitPrunes, is.PrefixPrunes)
		fmt.Printf("order: %d class keys computed\n", order.KeysComputed()-keysBefore)
	}
	if failed {
		stopProf() // os.Exit skips defers; flush profiles first
		os.Exit(1)
	}
}
