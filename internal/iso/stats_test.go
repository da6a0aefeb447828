package iso

import (
	"testing"

	"repro/internal/graph"
)

func TestSearchStats(t *testing.T) {
	before := Stats()
	// Petersen is vertex-transitive: its search discovers automorphisms,
	// so orbit pruning must fire, and the tree has many nodes.
	c := FromGraph(graph.Petersen(), nil)
	Canonical(c)
	d := Stats().Sub(before)
	if d.Searches != 1 {
		t.Errorf("searches delta = %d, want 1", d.Searches)
	}
	if d.Nodes <= 0 || d.Leaves <= 0 {
		t.Errorf("node/leaf deltas not positive: %+v", d)
	}
	if d.Nodes < d.Leaves {
		t.Errorf("visited fewer nodes than leaves: %+v", d)
	}
	if d.OrbitPrunes <= 0 {
		t.Errorf("Petersen search should orbit-prune, got %+v", d)
	}

	// The frozen reference engine must not count.
	before = Stats()
	SetReferenceEngine(true)
	Canonical(c)
	SetReferenceEngine(false)
	if d := Stats().Sub(before); d != (SearchStats{}) {
		t.Errorf("reference engine moved the counters: %+v", d)
	}
}

func TestSearchStatsSub(t *testing.T) {
	a := SearchStats{Searches: 5, Nodes: 100, Leaves: 20, OrbitPrunes: 3, PrefixPrunes: 7}
	b := SearchStats{Searches: 2, Nodes: 40, Leaves: 5, OrbitPrunes: 1, PrefixPrunes: 2}
	want := SearchStats{Searches: 3, Nodes: 60, Leaves: 15, OrbitPrunes: 2, PrefixPrunes: 5}
	if got := a.Sub(b); got != want {
		t.Errorf("Sub = %+v, want %+v", got, want)
	}
}
