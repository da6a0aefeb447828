package elect

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/order"
)

// TestAnalyzeCtxDeadline: the analysis of a rigid 1,000-node graph, below
// order.LargeThreshold, honors its deadline. Every canonical search of
// COMPUTE & ORDER polls ctx, so a 50 ms deadline surfaces as
// context.DeadlineExceeded well within a second. Uncanceled, the analysis
// runs 1,001 searches and takes about 13 s on a 2-vCPU Xeon, so the
// deadline always comes first.
func TestAnalyzeCtxDeadline(t *testing.T) {
	g := graph.RandomRegular(1000, 3, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := AnalyzeCtx(ctx, g, []int{0, 1, 2}, order.Direct)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("AnalyzeCtx returned err=%v after %v, want context.DeadlineExceeded", err, elapsed)
	}
	if elapsed > time.Second {
		t.Fatalf("AnalyzeCtx returned %v after the 50 ms deadline was set, want within 1 s", elapsed)
	}
}
