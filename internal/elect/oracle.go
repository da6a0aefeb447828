package elect

import (
	"context"
	"errors"

	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/labeling"
	"repro/internal/order"
)

// Analysis is the centralized solvability analysis of an election input
// (G, p) — the oracle the distributed protocols are validated against.
type Analysis struct {
	// Sizes are the ordered automorphism-equivalence class sizes and GCD
	// their gcd: Protocol ELECT elects iff GCD == 1 (Theorem 3.1).
	Sizes []int
	GCD   int

	// CayleyChecked reports whether the Cayley test decided. It is false
	// on the large path, which skips the test, and when the test's search
	// exhausted its search budget; Cayley is then false but means "unknown".
	CayleyChecked bool
	// Cayley reports whether G is a Cayley graph; when it is, TranslationD
	// is d, the number of home-base-preserving translations of the
	// canonical recognized representation. Since translation classes refine
	// automorphism classes, d divides GCD; the Section 4 protocol reports
	// impossible when d > 1 and otherwise reduces over the automorphism
	// classes, so it elects iff Cayley && GCD == 1.
	Cayley       bool
	TranslationD int

	// Thm21Checked reports whether the Theorem 2.1 condition could be
	// decided: the graph is simple, and either the gcd is 1 (and the
	// graph connected), which decides it with no search, or the search for
	// a witness finished within its budget. When true, Impossible21 reports
	// that some edge-labeling admits label-equivalence classes of size > 1,
	// in which case election is impossible.
	Thm21Checked bool
	Impossible21 bool
}

// BlackColors converts a home-base list to a node weighting: the number of
// agents based at each node (0/1 in the paper's main setting; larger under
// the shared-home extension, where homes may repeat).
func BlackColors(n int, homes []int) []int {
	out := make([]int, n)
	for _, h := range homes {
		out[h]++
	}
	return out
}

// Analyze computes the full solvability analysis of (g, homes).
func Analyze(g *graph.Graph, homes []int, ord order.Ordering) (*Analysis, error) {
	return AnalyzeCtx(context.Background(), g, homes, ord)
}

// AnalyzeCtx is Analyze under a context: cancellation propagates through
// COMPUTE & ORDER into every canonical search it runs (the sparse
// whole-graph search and, under order.Hairs, one surrounding search per
// class), and into the Cayley test and the Theorem 2.1 check, and surfaces
// as ctx.Err(). This is the hook by which a canceled /v1/analyze request
// stops its analysis mid-computation.
//
// The whole-graph search of (G, p) runs once, in COMPUTE & ORDER: the
// Cayley test relabels G by its canonical Perm, and the Theorem 2.1 check
// colors G by the orbits of its AutoGens.
//
// On graphs with at least order.LargeThreshold nodes the Cayley test and
// the Theorem 2.1 search, which need an n×n distance table, are skipped,
// leaving their fields unset exactly as an undecided small instance would.
// A connected simple graph with gcd 1 still gets its Theorem 2.1 answer,
// which needs no search (see labeling.ExistsSymmetricLabelingGens).
func AnalyzeCtx(ctx context.Context, g *graph.Graph, homes []int, ord order.Ordering) (*Analysis, error) {
	colors := BlackColors(g.N(), homes)
	o, err := order.ComputeAndOrderCtx(ctx, g, colors, ord)
	if err != nil {
		return nil, err
	}
	// Class sizes are node counts of the WEIGHTED classes (weights are the
	// node colors). Under the shared-home extension, co-located agents are
	// first reduced by a local whiteboard race, so the reduction arithmetic
	// operates on node counts regardless of weights.
	a := &Analysis{Sizes: o.Sizes(), GCD: o.GCD()}
	if g.N() >= order.LargeThreshold {
		a.Thm21Checked = a.GCD == 1 && g.IsSimple() && g.IsConnected()
		return a, nil
	}

	isCayley, d, err := cayleyTranslationCount(ctx, g, colors, o.Canon.Perm)
	switch {
	case err == nil:
		a.CayleyChecked = true
		a.Cayley = isCayley
		a.TranslationD = d
	case errors.Is(err, group.ErrUndecided):
		// Leave the Cayley fields unset; the gcd analysis still stands.
	default:
		return nil, err
	}

	if g.IsSimple() {
		w, err := labeling.ExistsSymmetricLabelingGens(ctx, g, o.Canon.AutoGens)
		switch {
		case err == nil:
			a.Thm21Checked = true
			a.Impossible21 = w != nil
		case ctx.Err() != nil:
			return nil, ctx.Err()
		}
	}
	return a, nil
}

// ElectSucceeds predicts the outcome of Protocol ELECT (Theorem 3.1).
func (a *Analysis) ElectSucceeds() bool { return a.GCD == 1 }

// CayleyElectSucceeds predicts the outcome of the Section 4 protocol
// (see CayleyElect: d > 1 short-circuits to impossible, and d divides GCD,
// so the decision reduces to the gcd criterion).
func (a *Analysis) CayleyElectSucceeds() bool {
	return a.Cayley && a.GCD == 1
}
