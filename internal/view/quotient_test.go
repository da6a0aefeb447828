package view

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func TestQuotientOrientedCycleCollapsesToPoint(t *testing.T) {
	// All nodes of the oriented cycle share one view: the quotient is a
	// single node with a 1/2 arc and a 2/1 arc to itself, fold degree n.
	for _, n := range []int{4, 7} {
		q, err := BuildQuotient(graph.Cycle(n), graph.OrientedCycleLabeling(n), nil)
		if err != nil {
			t.Fatal(err)
		}
		if q.NodeCount() != 1 {
			t.Fatalf("C%d oriented: quotient has %d nodes, want 1", n, q.NodeCount())
		}
		if q.FoldDegree() != n {
			t.Fatalf("C%d: fold degree %d, want %d", n, q.FoldDegree(), n)
		}
		if len(q.Arcs[0]) != 2 || q.Arcs[0][0].To != 0 || q.Arcs[0][1].To != 0 {
			t.Fatalf("C%d: quotient arcs %v", n, q.Arcs[0])
		}
		if err := q.WellDefined(graph.Cycle(n), graph.OrientedCycleLabeling(n)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestQuotientRigidGraphIsIdentity(t *testing.T) {
	// A rigid labeled graph (one black node on an oriented cycle) has all
	// singleton classes: the quotient is the graph itself, fold degree 1.
	n := 6
	colors := make([]int, n)
	colors[0] = 1
	q, err := BuildQuotient(graph.Cycle(n), graph.OrientedCycleLabeling(n), colors)
	if err != nil {
		t.Fatal(err)
	}
	if q.NodeCount() != n || q.FoldDegree() != 1 {
		t.Fatalf("quotient nodes %d fold %d, want %d and 1", q.NodeCount(), q.FoldDegree(), n)
	}
}

func TestQuotientWellDefinedOnRandomInputs(t *testing.T) {
	// The fibration property must hold for arbitrary labelings of arbitrary
	// graphs — this is the executable core of the view theory.
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(8)
		g := graph.RandomConnected(n, rng.Intn(6), rng.Int63())
		l := graph.RandomLabeling(g, rng.Int63())
		colors := make([]int, n)
		if rng.Intn(2) == 0 {
			colors[rng.Intn(n)] = 1
		}
		q, err := BuildQuotient(g, l, colors)
		if err != nil {
			t.Fatal(err)
		}
		if err := q.WellDefined(g, l); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// n = fold × quotient size.
		if q.FoldDegree()*q.NodeCount() != n {
			t.Fatalf("trial %d: fold %d × classes %d != n %d",
				trial, q.FoldDegree(), q.NodeCount(), n)
		}
	}
}

func TestQuotientFig2c(t *testing.T) {
	// Figure 2(c): all three nodes one class; the quotient is one node with
	// four arcs (the four ports), fold degree 3.
	g := graph.Fig2c()
	q, err := BuildQuotient(g, Fig2cLabeling(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.NodeCount() != 1 || q.FoldDegree() != 3 {
		t.Fatalf("nodes %d fold %d, want 1 and 3", q.NodeCount(), q.FoldDegree())
	}
	if len(q.Arcs[0]) != 4 {
		t.Fatalf("arcs %v, want 4 of them", q.Arcs[0])
	}
	if err := q.WellDefined(g, Fig2cLabeling()); err != nil {
		t.Fatal(err)
	}
}
