package iso

import (
	"context"
	"testing"

	"repro/internal/graph"
)

func TestSearchStats(t *testing.T) {
	before := Stats()
	// Petersen is vertex-transitive: its search discovers automorphisms,
	// so orbit pruning must fire, and the tree has many nodes.
	c := sparse(graph.Petersen())
	CanonicalSparse(c)
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

	// A search that its context stopped is not a completed search.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before = Stats()
	if _, err := CanonicalSparseCtx(ctx, c); err == nil {
		t.Fatal("search under a canceled context completed")
	}
	if d := Stats().Sub(before); d.Searches != 0 {
		t.Errorf("canceled search counted as completed: searches delta = %d, want 0", d.Searches)
	}

	// The frozen reference engine must not count.
	before = Stats()
	SetReferenceEngine(true)
	CanonicalSparse(c)
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
