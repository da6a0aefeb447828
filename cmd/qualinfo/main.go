// Command qualinfo prints the structural analysis of a bicolored anonymous
// network: equivalence classes with the ≺ order and surroundings keys,
// Cayley recognition with translation data, view classes and symmetricity
// under a chosen labeling, and the Theorem 2.1 symmetric-labeling check.
//
// Usage:
//
//	qualinfo -graph petersen -homes 0,1
package main

import (
	"errors"
	"flag"
	"fmt"
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
	family := flag.String("graph", "cycle", "graph family (see cmd/elect)")
	n := flag.Int("n", 6, "size parameter")
	homesArg := flag.String("homes", "0", "comma-separated home-base nodes")
	hairs := flag.Bool("hairs", false, "use the hair ordering for ≺")
	dot := flag.Bool("dot", false, "emit the instance in Graphviz DOT format and exit")
	flag.Parse()

	g, err := campaign.BuildGraph(*family, *n)
	if err != nil {
		fail(err)
	}
	homes, err := campaign.ParseHomes(*homesArg)
	if err != nil {
		fail(err)
	}
	colors := elect.BlackColors(g.N(), homes)
	if *dot {
		fmt.Print(g.ToDOT(*family, colors))
		return
	}
	fmt.Printf("graph: %s, n=%d, |E|=%d, homes %v\n", *family, g.N(), g.M(), homes)
	reg, deg := g.IsRegular()
	fmt.Printf("regular: %v (degree %d), diameter %d, simple %v\n", reg, deg, g.Diameter(), g.IsSimple())

	ord := order.Direct
	if *hairs {
		ord = order.Hairs
	}
	o := order.ComputeAndOrder(g, colors, ord)
	fmt.Printf("\nequivalence classes (COMPUTE & ORDER, %d black of %d):\n", o.NumBlack, len(o.Classes))
	for i, c := range o.Classes {
		kind := "white"
		if i < o.NumBlack {
			kind = "black"
		}
		fmt.Printf("  C%-2d %-5s size %-3d nodes %v\n", i+1, kind, len(c), c)
	}
	fmt.Printf("gcd of class sizes: %d  =>  Protocol ELECT %s\n", o.GCD(),
		map[bool]string{true: "elects a leader", false: "reports failure"}[o.GCD() == 1])

	rec, err := group.Recognize(g)
	switch {
	case errors.Is(err, group.ErrUndecided):
		fmt.Printf("\nCayley graph: undecided (%v)\n", err)
	case err != nil:
		fail(err)
	case rec.IsCayley:
		fmt.Printf("\nCayley graph: yes — regular subgroup of order %d found", rec.Group.Order())
		if rec.Group.IsAbelian() {
			fmt.Printf(" (abelian)")
		}
		fmt.Println()
		cay, err := rec.RecognizedCayley(g)
		if err != nil {
			fail(err)
		}
		black := make([]bool, g.N())
		for _, h := range homes {
			black[h] = true
		}
		classes, d := cay.TranslationClasses(black)
		fmt.Printf("translation classes: %d of size %d (d = %d)  =>  Section 4 verdict: %s\n",
			len(classes), d, d,
			map[bool]string{true: "possibly solvable (reduce)", false: "impossible (Theorem 2.1)"}[d == 1])
	default:
		fmt.Printf("\nCayley graph: no\n")
	}

	l := graph.PortLabeling(g)
	cl, err := view.ComputeClasses(g, l, colors)
	if err != nil {
		fail(err)
	}
	sym, ok := cl.Symmetricity()
	fmt.Printf("\nviews under the port labeling: %d classes", cl.Count())
	if ok {
		fmt.Printf(", symmetricity σ_ℓ = %d", sym)
	}
	fmt.Println()

	if g.IsSimple() {
		w, err := labeling.ExistsSymmetricLabeling(g, colors, 0)
		switch {
		case errors.Is(err, group.ErrUndecided):
			fmt.Printf("\nTheorem 2.1: undecided (%v)\n", err)
		case err != nil:
			fail(err)
		case w != nil:
			fmt.Printf("\nTheorem 2.1: a symmetric labeling EXISTS (witness automorphism %v)\n", w.Phi)
			fmt.Println("             => election is impossible in the qualitative model")
		default:
			fmt.Println("\nTheorem 2.1: no edge-labeling admits label-equivalence classes of size > 1")
			fmt.Println("             => the necessary condition for impossibility fails")
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "qualinfo:", err)
	os.Exit(1)
}
