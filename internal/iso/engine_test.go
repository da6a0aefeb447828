package iso

// Tests of the optimized engine's mechanics: the allocation-free refinement
// hot path, context cancellation, and the exported equitable partition.

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/graph"
)

// TestRefineHotPathAllocationFree asserts the acceptance criterion of the
// refinement rewrite: with warm scratch, a full equitable refinement pass
// performs zero allocations — hence no fmt formatting, no string keys and
// no map allocation on the hot path.
func TestRefineHotPathAllocationFree(t *testing.T) {
	for _, tc := range hotPathGraphs() {
		st := sparseState(tc.sp)
		lv := st.level(0)
		// Warm the scratch buffers once.
		st.initialPartition(lv)
		st.refine(lv)
		allocs := testing.AllocsPerRun(50, func() {
			st.initialPartition(lv)
			st.refine(lv)
		})
		if allocs != 0 {
			t.Errorf("%s: refine hot path allocated %.1f times per run, want 0", tc.name, allocs)
		}
	}
}

type namedSparse struct {
	name string
	sp   *Sparse
}

// hotPathGraphs are the inputs of the allocation tests: symmetric graphs
// whose searches record automorphisms and prune by orbits, and a bicolored
// cycle.
func hotPathGraphs() []namedSparse {
	return []namedSparse{
		{"petersen", sparse(graph.Petersen())},
		{"q4", sparse(graph.Hypercube(4))},
		{"c32-bicolored", SparseFromGraph(graph.Cycle(32), blackAt(32, 0, 8, 16, 24))},
		{"torus4x4", sparse(graph.Torus(4, 4))},
	}
}

func blackAt(n int, idx ...int) []int {
	cols := make([]int, n)
	for _, i := range idx {
		cols[i] = 1
	}
	return cols
}

// TestEquitablePartition sanity-checks the exported refinement: cells are
// equitable (equal out/in multiplicity into every cell for all members) and
// the partition is invariant under relabeling.
func TestEquitablePartition(t *testing.T) {
	c := FromGraph(graph.Star(4), nil)
	cells := SparseEquitablePartition(SparseFromColored(c))
	if len(cells) != 2 {
		t.Fatalf("star partition: %v", cells)
	}
	for _, cell := range cells {
		for _, other := range cells {
			out0, in0 := -1, -1
			for _, v := range cell {
				out, in := 0, 0
				for _, u := range other {
					out += c.Adj[v][u]
					in += c.Adj[u][v]
				}
				if out0 == -1 {
					out0, in0 = out, in
				} else if out != out0 || in != in0 {
					t.Fatalf("partition not equitable at cell %v vs %v", cell, other)
				}
			}
		}
	}
}

// TestCanonicalCtxCancel: a canceled context must stop the search and
// surface context.Canceled, both when canceled before the search starts and
// when canceled by another goroutine mid-search.
func TestCanonicalCtxCancel(t *testing.T) {
	c := sparse(graph.BlowupCycle(6, 3))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CanonicalSparseCtx(ctx, c); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled ctx: got err=%v, want context.Canceled", err)
	}

	// Mid-search cancellation: the search either finishes first (fine:
	// err == nil with the right word) or observes the cancellation (err ==
	// context.Canceled); it must not hang or return a wrong word.
	big := sparse(graph.BlowupCycle(8, 4))
	want := word(big)
	ctx2, cancel2 := context.WithCancel(context.Background())
	go cancel2()
	res, err := CanonicalSparseCtx(ctx2, big)
	switch {
	case err == nil:
		if !bytes.Equal(res.Word, want) {
			t.Fatal("race with cancel: completed with wrong word")
		}
	case errors.Is(err, context.Canceled):
		// expected alternative
	default:
		t.Fatalf("race with cancel: unexpected error %v", err)
	}
}

// TestRefinementNearLinear: a refinement split costs the vertices its key
// touches, not the whole cell, and a parent's largest fragment is keyed by
// its complement, so refining a long cycle or path from one or two black
// vertices is near-linear. A split that re-sorted whole cells, or an
// untouched bulk rescanned as a key every other pass, makes the root
// refinement of these 16,384-node graphs quadratic: seconds, not
// milliseconds. The search polls ctx between nodes, so such a root refine
// overruns the deadline and the search returns its error.
func TestRefinementNearLinear(t *testing.T) {
	const n = 16384
	for _, tc := range []namedSparse{
		{"c16384-{0,7}", SparseFromGraph(graph.Cycle(n), blackAt(n, 0, 7))},
		{"p16384-{0}", SparseFromGraph(graph.Path(n), blackAt(n, 0))},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		r, err := CanonicalSparseCtx(ctx, tc.sp)
		cancel()
		if err != nil {
			t.Fatalf("%s: canonical search did not finish within 2 s: %v", tc.name, err)
		}
		if len(r.Perm) != n {
			t.Fatalf("%s: labeling has %d entries, want %d", tc.name, len(r.Perm), n)
		}
	}
}

// TestBranchCellAscending: the search tries a branch cell's vertices in
// ascending order, although refinement leaves cells in no particular
// order. On C6 every leaf has the minimum word, so the first leaf is the
// canonical labeling. It individualizes vertex 0 at the root; refinement
// then yields the cells {0}, {2, 4}, {3}, {1, 5}, and the search branches
// on {2, 4}, trying 2 first, which it places before 4.
func TestBranchCellAscending(t *testing.T) {
	p := CanonicalSparse(sparse(graph.Cycle(6))).Perm
	if p[0] != 0 || p[2] > p[4] {
		t.Fatalf("canonical labeling %v: want vertex 0 at position 0 and vertex 2 before vertex 4", p)
	}
}
