//go:build !race

// Under the race detector sync.Pool drops a random share of its Puts, so a
// warm search may find the pool empty and allocate a whole state; the
// allocation bound below holds only without it.

package iso

import (
	"context"
	"runtime/debug"
	"testing"

	"repro/internal/graph"
)

// TestWarmSearchAllocatesOnlyResult: with the search state recycled through
// statePool, a warm canonical search allocates only what its Result owns —
// the Result, its Perm and Word, and each automorphism generator with the
// growth of the AutoGens slice. GC is off while counting, so a collection
// cannot empty the pool mid-count.
func TestWarmSearchAllocatesOnlyResult(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	cases := append(hotPathGraphs(),
		namedSparse{"rr24-rigid", sparse(graph.RandomRegular(24, 3, 5))},
		namedSparse{"c12-surrounding", SparseFromArcs(12, surroundingArcsOfCycle(12), blackAt(12, 0, 4))})
	for _, tc := range cases {
		search := func() (*Result, error) { return CanonicalSparseCtx(ctx, tc.sp) }
		r, err := search()
		if err != nil {
			t.Fatal(err)
		}
		limit := float64(4 + 2*len(r.AutoGens))
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := search(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > limit {
			t.Errorf("%s: warm search allocated %.1f times, want at most %.0f (4 + 2·%d generators)",
				tc.name, allocs, limit, len(r.AutoGens))
		}
	}
}
