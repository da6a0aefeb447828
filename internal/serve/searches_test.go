package serve

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/iso"
)

// TestOneSearchPerLookup counts the canonical searches of the daemon's cache
// lookups. A miss runs the whole-graph search of (G, p) once: the key's,
// which the analysis continues from. C12 {0,1,2} adds the Cayley test's
// search of the uncolored C12; the rigid RR3-200 and the path are rejected
// by that test without one, and C2048 is on the large path, which skips it.
// A hit runs the key's search alone.
func TestOneSearchPerLookup(t *testing.T) {
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		homes []int
		miss  int64
	}{
		{"RR3-200", graph.RandomRegular(200, 3, 1), []int{0, 1, 2}, 1},
		{"P9", graph.Path(9), []int{0, 4}, 1},
		{"C2048", graph.Cycle(2048), []int{0, 7}, 1},
		{"C12", graph.Cycle(12), []int{0, 1, 2}, 2},
	} {
		s := New(Config{})
		for _, want := range []int64{tc.miss, 1} {
			before := iso.Stats().Searches
			if _, _, err := s.Cache().Get(context.Background(), tc.g, tc.homes); err != nil {
				t.Fatal(err)
			}
			if got := iso.Stats().Searches - before; got != want {
				t.Errorf("%s: lookup %d ran %d canonical searches, want %d", tc.name, s.Cache().Stats().Misses+s.Cache().Stats().Hits, got, want)
			}
		}
		if st := s.Cache().Stats(); st.Misses != 1 || st.Hits != 1 {
			t.Fatalf("%s: stats %+v, want one miss then one hit", tc.name, st)
		}
	}
}
