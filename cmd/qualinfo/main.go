// Command qualinfo prints the structural analysis of a bicolored anonymous
// network: equivalence classes with the ≺ order and surroundings keys, the
// Section 4 Cayley test with the translation count d that every CayleyElect
// agent computes, view classes and symmetricity under the port labeling,
// and the Theorem 2.1 symmetric-labeling check.
//
// Usage:
//
//	qualinfo -graph petersen -homes 0,1
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/campaign"
	"repro/internal/elect"
	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/labeling"
	"repro/internal/order"
	"repro/internal/view"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qualinfo:", err)
		os.Exit(1)
	}
}

// run prints the analysis of the instance the flags in args name to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("qualinfo", flag.ContinueOnError)
	fs.SetOutput(w)
	family := fs.String("graph", "cycle", "graph family (see cmd/elect)")
	n := fs.Int("n", 6, "size parameter")
	homesArg := fs.String("homes", "0", "comma-separated home-base nodes")
	hairs := fs.Bool("hairs", false, "use the hair ordering for ≺")
	dot := fs.Bool("dot", false, "emit the instance in Graphviz DOT format and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, err := campaign.BuildGraph(*family, *n)
	if err != nil {
		return err
	}
	homes, err := campaign.ParseHomes(*homesArg)
	if err != nil {
		return err
	}
	colors := elect.BlackColors(g.N(), homes)
	if *dot {
		fmt.Fprint(w, g.ToDOT(*family, colors))
		return nil
	}
	fmt.Fprintf(w, "graph: %s, n=%d, |E|=%d, homes %v\n", *family, g.N(), g.M(), homes)
	reg, deg := g.IsRegular()
	fmt.Fprintf(w, "regular: %v (degree %d), diameter %d, simple %v\n", reg, deg, g.Diameter(), g.IsSimple())

	ord := order.Direct
	if *hairs {
		ord = order.Hairs
	}
	o := order.ComputeAndOrder(g, colors, ord)
	fmt.Fprintf(w, "\nequivalence classes (COMPUTE & ORDER, %d black of %d):\n", o.NumBlack, len(o.Classes))
	for i, c := range o.Classes {
		kind := "white"
		if i < o.NumBlack {
			kind = "black"
		}
		fmt.Fprintf(w, "  C%-2d %-5s size %-3d nodes %v\n", i+1, kind, len(c), c)
	}
	fmt.Fprintf(w, "gcd of class sizes: %d  =>  Protocol ELECT %s\n", o.GCD(),
		map[bool]string{true: "elects a leader", false: "reports failure"}[o.GCD() == 1])

	// The d every CayleyElect agent computes: the test runs on the
	// canonical relabeling of (G, p), so the verdict does not depend on how
	// the nodes are numbered.
	isCayley, d, err := elect.CayleyTranslationCount(g, colors, 0)
	switch {
	case errors.Is(err, group.ErrUndecided):
		fmt.Fprintf(w, "\nCayley graph: undecided (%v)\n", err)
	case err != nil:
		return err
	case isCayley:
		fmt.Fprintf(w, "\nCayley graph: yes, d = %d translations preserve the homes  =>  Section 4 verdict: %s\n",
			d, map[bool]string{true: "possibly solvable (reduce)", false: "impossible (Theorem 2.1)"}[d == 1])
	default:
		fmt.Fprintf(w, "\nCayley graph: no\n")
	}

	l := graph.PortLabeling(g)
	cl, err := view.ComputeClasses(g, l, colors)
	if err != nil {
		return err
	}
	sym, ok := cl.Symmetricity()
	fmt.Fprintf(w, "\nviews under the port labeling: %d classes", cl.Count())
	if ok {
		fmt.Fprintf(w, ", symmetricity σ_ℓ = %d", sym)
	}
	fmt.Fprintln(w)

	if g.IsSimple() {
		wit, err := labeling.ExistsSymmetricLabeling(g, colors, 0)
		switch {
		case errors.Is(err, group.ErrUndecided):
			fmt.Fprintf(w, "\nTheorem 2.1: undecided (%v)\n", err)
		case err != nil:
			return err
		case wit != nil:
			fmt.Fprintf(w, "\nTheorem 2.1: a symmetric labeling EXISTS (witness automorphism %v)\n", wit.Phi)
			fmt.Fprintln(w, "             => election is impossible in the qualitative model")
		default:
			fmt.Fprintln(w, "\nTheorem 2.1: no edge-labeling admits label-equivalence classes of size > 1")
			fmt.Fprintln(w, "             => the necessary condition for impossibility fails")
		}
	}
	return nil
}
