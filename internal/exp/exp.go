// Package exp is the experiment harness of the reproduction: one function
// per table or figure of the paper, each regenerating the corresponding
// result as a rendered text table plus structured data that the tests and
// benchmarks assert on. The experiment index lives in DESIGN.md §4 and the
// measured outcomes in EXPERIMENTS.md.
package exp

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/elect"
	"repro/internal/graph"
	"repro/internal/labeling"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/view"
)

// Table renders rows of cells with aligned columns.
func Table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	all := append([][]string{header}, rows...)
	for _, r := range all {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(r []string) {
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// Instance is one election input.
type Instance struct {
	Name  string
	G     *graph.Graph
	Homes []int
}

// runCfg builds the common simulation configuration of the experiments.
func runCfg(g *graph.Graph, homes []int, seed int64, quant bool) sim.Config {
	return sim.Config{
		Graph: g, Homes: homes, Seed: seed, WakeAll: false,
		MaxDelay: 50 * time.Microsecond, Timeout: 120 * time.Second,
		QuantitativeIDs: quant,
	}
}

// outcomeString summarizes a run result.
func outcomeString(res *sim.Result) string {
	switch {
	case res.AgreedLeader():
		return "leader"
	case res.AllUnsolvable():
		return "unsolvable"
	default:
		return "MIXED"
	}
}

// ---------------------------------------------------------------------------
// E1 — Table 1: election feasibility per agent model.
// ---------------------------------------------------------------------------

// Table1Row is one empirical cell bundle of Table 1.
type Table1Row struct {
	Model              string
	Universal          string
	EffectualArbitrary string
	EffectualCayley    string
}

// Table1 regenerates the paper's Table 1 empirically:
//
//   - anonymous agents: the lockstep C3/C6 construction shows even the
//     effectual goals unreachable (No everywhere);
//   - qualitative agents: K2 refutes universality; ELECT mis-declares the
//     solvable Petersen instance (so plain ELECT is not effectual on
//     arbitrary graphs — the paper leaves existence open, resolved
//     positively by Chalopin 2006); on the Cayley sweep the Section 4
//     decision matches the exact Theorem 2.1 oracle on every instance (Yes);
//   - quantitative agents: the baseline elects on every instance of the
//     suite, including all qualitatively impossible ones (Yes everywhere).
func Table1(seed int64) (string, []Table1Row, error) {
	// Anonymous: reproduce the §1.3 contradiction.
	c3, c6, err := lockstepPair()
	if err != nil {
		return "", nil, err
	}
	anon := "No"
	if checkContradiction(c3, c6) != nil {
		anon = "ERROR: contradiction not reproduced"
	}

	// Qualitative / universal: K2 must come back unsolvable.
	k2, err := sim.Run(runCfg(graph.Path(2), []int{0, 1}, seed, false),
		elect.Elect(elect.Options{}))
	if err != nil {
		return "", nil, err
	}
	qualUniversal := "No"
	if !k2.AllUnsolvable() {
		qualUniversal = "ERROR: K2 elected"
	}

	// Qualitative / effectual-arbitrary: Petersen Fig.5 is solvable (ad hoc
	// protocol elects; Theorem 2.1 finds no symmetric labeling) yet ELECT
	// declares it unsolvable.
	pAn, err := elect.Analyze(graph.Petersen(), []int{0, 1}, order.Direct)
	if err != nil {
		return "", nil, err
	}
	pElect, err := sim.Run(runCfg(graph.Petersen(), []int{0, 1}, seed, false),
		elect.Elect(elect.Options{}))
	if err != nil {
		return "", nil, err
	}
	pAdhoc, err := sim.Run(runCfg(graph.Petersen(), []int{0, 1}, seed, false),
		elect.PetersenElect())
	if err != nil {
		return "", nil, err
	}
	qualArbitrary := "? (ELECT: no)"
	if pAn.Impossible21 || !pElect.AllUnsolvable() || !pAdhoc.AgreedLeader() {
		qualArbitrary = "ERROR: Petersen evidence failed"
	}

	// Qualitative / effectual-Cayley: sweep decision vs oracle.
	agree, total, err := CayleySweepAgreement()
	if err != nil {
		return "", nil, err
	}
	qualCayley := fmt.Sprintf("Yes (%d/%d oracle-matched)", agree, total)
	if agree != total {
		qualCayley = fmt.Sprintf("ERROR: %d/%d mismatched", total-agree, total)
	}

	// Quantitative: baseline elects on every instance, including impossible
	// qualitative ones.
	quantOK := true
	for _, inst := range QuantSuite() {
		res, err := sim.Run(runCfg(inst.G, inst.Homes, seed, true), elect.QuantitativeElect())
		if err != nil {
			return "", nil, err
		}
		if !res.AgreedLeader() {
			quantOK = false
		}
	}
	quant := "Yes"
	if !quantOK {
		quant = "ERROR"
	}

	rows := []Table1Row{
		{"Anonymous", anon, anon, anon},
		{"Qualitative", qualUniversal, qualArbitrary, qualCayley},
		{"Quantitative", quant, quant, quant},
	}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Model, r.Universal, r.EffectualArbitrary, r.EffectualCayley})
	}
	return Table(
		[]string{"Agents", "Universal", "Effectual(arbitrary)", "Effectual(Cayley)"},
		cells), rows, nil
}

// QuantSuite returns the instances used for the quantitative row —
// deliberately including every qualitative counterexample.
func QuantSuite() []Instance {
	return []Instance{
		{"K2", graph.Path(2), []int{0, 1}},
		{"C6-antipodal", graph.Cycle(6), []int{0, 3}},
		{"petersen-fig5", graph.Petersen(), []int{0, 1}},
		{"Q3-antipodal", graph.Hypercube(3), []int{0, 7}},
		{"K4-full", graph.Complete(4), []int{0, 1, 2, 3}},
		{"star-leaves", graph.Star(4), []int{1, 2, 3, 4}},
	}
}

// ---------------------------------------------------------------------------
// E2 — Figure 2(a,b): quantitative vs qualitative labelings of the path.
// ---------------------------------------------------------------------------

// FirstSeenCoding renames a symbol sequence by order of first appearance —
// the paper's "code i the i-th symbol met so far" rule an agent can apply
// to incomparable symbols.
func FirstSeenCoding(seq []string) []int {
	code := map[string]int{}
	out := make([]int, len(seq))
	for i, s := range seq {
		if _, ok := code[s]; !ok {
			code[s] = len(code) + 1
		}
		out[i] = code[s]
	}
	return out
}

// Fig2AB regenerates Figure 2(a,b): under the quantitative labeling the
// three views of the path are pairwise distinct and totally ordered; under
// the qualitative labeling the first-seen codings of the two end-to-end
// walks collide (both 1,2,3,1), so views cannot be ordered by coding.
func Fig2AB() (string, error) {
	g := graph.Path(3)
	lq := labeling.Fig2aLabeling()
	cl, err := view.ComputeClasses(g, lq, nil)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2(a) — quantitative path x-y-z, labels l_x(xy)=1 l_y(xy)=1 l_y(yz)=2 l_z(yz)=1\n")
	fmt.Fprintf(&b, "  view classes: %d (all distinct: %v)\n", cl.Count(), cl.Count() == 3)
	views := make([]string, 3)
	for v := 0; v < 3; v++ {
		views[v] = view.BuildTree(g, lq, nil, v, 2).String()
	}
	ordered := append([]string(nil), views...)
	sort.Strings(ordered)
	fmt.Fprintf(&b, "  canonical order of integer-labeled views: %q\n", ordered)

	// Figure 2(b): the qualitative labeling *, o, ., * — walk both ways.
	seqFromX := []string{"*", "o", ".", "*"}
	seqFromZ := []string{"*", ".", "o", "*"}
	cx, cz := FirstSeenCoding(seqFromX), FirstSeenCoding(seqFromZ)
	fmt.Fprintf(&b, "Figure 2(b) — qualitative path, symbols *, o, . (incomparable)\n")
	fmt.Fprintf(&b, "  agent from x sees %v -> coding %v\n", seqFromX, cx)
	fmt.Fprintf(&b, "  agent from z sees %v -> coding %v\n", seqFromZ, cz)
	same := fmt.Sprint(cx) == fmt.Sprint(cz)
	fmt.Fprintf(&b, "  codings collide: %v (so the two end agents cannot order their views)\n", same)
	if !same || cl.Count() != 3 {
		return b.String(), fmt.Errorf("exp: Figure 2(a,b) expectations violated")
	}
	return b.String(), nil
}

// Fig2C regenerates Figure 2(c): the 3-node multigraph whose nodes all have
// the same view under the figure's labeling although every label-equivalence
// class is a singleton — the converse of Equation (1) fails.
func Fig2C() (string, error) {
	g := graph.Fig2c()
	l := labeling.Fig2cLabeling()
	cl, err := view.ComputeClasses(g, l, nil)
	if err != nil {
		return "", err
	}
	classes, err := labeling.LabClasses(g, l, nil)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2(c) — triangle + double edge + loop, the paper's labeling\n")
	fmt.Fprintf(&b, "  view classes: %d (all three nodes share one view: %v)\n",
		cl.Count(), cl.Count() == 1)
	fmt.Fprintf(&b, "  label-equivalence classes: %v (all singletons: %v)\n",
		classes, len(classes) == 3)
	if cl.Count() != 1 || len(classes) != 3 {
		return b.String(), fmt.Errorf("exp: Figure 2(c) expectations violated")
	}
	return b.String(), nil
}
