package iso

// Tests of the optimized engine's mechanics: the allocation-free refinement
// hot path, context cancellation, and the exported equitable partition.

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/graph"
)

// TestRefineHotPathAllocationFree asserts the acceptance criterion of the
// refinement rewrite: with warm scratch, a full equitable refinement pass
// performs zero allocations — hence no fmt formatting, no string keys and
// no map allocation on the hot path.
func TestRefineHotPathAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    *Colored
	}{
		{"petersen", FromGraph(graph.Petersen(), nil)},
		{"q4", FromGraph(graph.Hypercube(4), nil)},
		{"c32-bicolored", FromGraph(graph.Cycle(32), blackAt(32, 0, 8, 16, 24))},
		{"torus4x4", FromGraph(graph.Torus(4, 4), nil)},
	} {
		st := newCanonState(tc.c)
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
	cells := EquitablePartition(c)
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
	c := FromGraph(graph.BlowupCycle(6, 3), nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CanonicalCtx(ctx, c); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled ctx: got err=%v, want context.Canceled", err)
	}

	// Mid-search cancellation: the search either finishes first (fine:
	// err == nil with the right word) or observes the cancellation (err ==
	// context.Canceled); it must not hang or return a wrong word.
	big := FromGraph(graph.BlowupCycle(8, 4), nil)
	want := Canonical(big).Word
	ctx2, cancel2 := context.WithCancel(context.Background())
	go cancel2()
	res, err := CanonicalCtx(ctx2, big)
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
