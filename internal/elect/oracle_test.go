package elect

import (
	"context"
	"errors"
	"strings"
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
//   - K12 with one home, whose Theorem 2.1 check needs no search (gcd 1):
//     COMPUTE & ORDER takes under 1 ms (13–25 ms under -race), so a 50 ms
//     deadline lands in the Cayley test, whose automorphism enumeration
//     polls ctx every 256 nodes and returns within 250 ms. Uncanceled, the
//     test runs 0.55–0.75 s on a 2-vCPU Xeon (about 9 s under -race)
//     before its search budget runs out.
func TestAnalyzeCtxDeadline(t *testing.T) {
	for _, tc := range []struct {
		name            string
		g               *graph.Graph
		homes           []int
		deadline, limit time.Duration
		stage           string // a prefix the error must carry, if any
	}{
		{"rr3-1000", graph.RandomRegular(1000, 3, 1), []int{0, 1, 2}, 50 * time.Millisecond, time.Second, ""},
		{"K12", graph.Complete(12), []int{0}, 50 * time.Millisecond, 250 * time.Millisecond, "elect: Cayley test: "},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), tc.deadline)
		start := time.Now()
		_, err := AnalyzeCtx(ctx, tc.g, tc.homes, order.Direct)
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) || !strings.HasPrefix(err.Error(), tc.stage) {
			t.Fatalf("%s: AnalyzeCtx returned err=%v after %v, want %scontext.DeadlineExceeded", tc.name, err, elapsed, tc.stage)
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

// TestAnalyzeBeyondTheOldCap: K9 and K6,6 with one home, whose automorphism
// groups the Cayley test used to list and could not, are decided as Cayley
// graphs with d = 1, and their Theorem 2.1 check needs no search (gcd 1).
// The large path answers Theorem 2.1 when gcd = 1 as well.
func TestAnalyzeBeyondTheOldCap(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"K9": graph.Complete(9), "K6,6": graph.CompleteBipartite(6, 6),
	} {
		an, err := Analyze(g, []int{0}, order.Direct)
		if err != nil {
			t.Fatal(err)
		}
		if !an.CayleyChecked || !an.Cayley || an.TranslationD != 1 || !an.Thm21Checked || an.Impossible21 {
			t.Fatalf("%s {0}: %+v", name, an)
		}
	}
	an, err := Analyze(graph.Cycle(order.LargeThreshold), []int{0, 1, 3}, order.Direct)
	if err != nil {
		t.Fatal(err)
	}
	if an.GCD != 1 || an.CayleyChecked || !an.Thm21Checked || an.Impossible21 {
		t.Fatalf("large cycle {0, 1, 3}: GCD %d, CayleyChecked %v, Thm21Checked %v", an.GCD, an.CayleyChecked, an.Thm21Checked)
	}
}
