package elect

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/iso"
	"repro/internal/order"
)

// TestAnalyzeCtxDeadline: AnalyzeCtx honors its deadline in each of its
// stages.
//   - A rigid 1,000-node graph, below order.LargeThreshold: every canonical
//     search of COMPUTE & ORDER polls ctx, so a 50 ms deadline surfaces
//     within a second. Uncanceled, the analysis runs 1,001 searches and
//     takes about 13 s on a 2-vCPU Xeon.
//   - The 6-cube, whose COMPUTE & ORDER takes a few milliseconds: the
//     Cayley test closes its 46,080-element automorphism group under ctx,
//     so a 20 ms deadline surfaces within 250 ms. Uncanceled, the analysis
//     takes about 1.6 s on a 2-vCPU Xeon, most of it in that closure.
func TestAnalyzeCtxDeadline(t *testing.T) {
	for _, tc := range []struct {
		name            string
		g               *graph.Graph
		homes           []int
		deadline, limit time.Duration
	}{
		{"rr3-1000", graph.RandomRegular(1000, 3, 1), []int{0, 1, 2}, 50 * time.Millisecond, time.Second},
		{"q6", graph.Hypercube(6), []int{0}, 20 * time.Millisecond, 250 * time.Millisecond},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), tc.deadline)
		start := time.Now()
		_, err := AnalyzeCtx(ctx, tc.g, tc.homes, order.Direct)
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: AnalyzeCtx returned err=%v after %v, want context.DeadlineExceeded", tc.name, err, elapsed)
		}
		if elapsed > tc.limit {
			t.Fatalf("%s: AnalyzeCtx returned %v after the %v deadline was set, want within %v", tc.name, elapsed, tc.deadline, tc.limit)
		}
	}
}

// TestAnalyzeSearchCount: one analysis runs the whole-graph search of
// (G, p) once. On a rigid RR3-200 with three homes that is 202 searches:
// the whole-graph search and 200 class surroundings in COMPUTE & ORDER,
// whose canonical Perm and generators the Cayley test and the Theorem 2.1
// check reuse, plus the Cayley test's search of uncoloured G.
func TestAnalyzeSearchCount(t *testing.T) {
	g := graph.RandomRegular(200, 3, 1)
	before := iso.Stats()
	if _, err := Analyze(g, []int{0, 1, 2}, order.Direct); err != nil {
		t.Fatal(err)
	}
	if got := iso.Stats().Sub(before).Searches; got != 202 {
		t.Fatalf("Analyze ran %d canonical searches, want 202", got)
	}
}
