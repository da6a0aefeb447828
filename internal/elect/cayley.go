package elect

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/iso"
	"repro/internal/order"
	"repro/internal/perm"
	"repro/internal/sim"
)

// CayleyTranslationCount decides whether the bicolored graph is a Cayley
// graph and, if so, returns d — the number of translations of the
// recognized representation that preserve the black set. autCap is unused:
// the test searches without listing the automorphism group, and an
// exhausted search budget surfaces as group.ErrUndecided.
//
// Agreement matters here: the regular-subgroup search is deterministic in
// the input labeling but not canonical across isomorphic inputs, and a
// graph can be a Cayley graph of non-isomorphic groups (Q3 is both
// Cay(Z2³,·) and Cay(Z4×Z2,·)), whose translations preserve different black
// sets. Two agents running the search directly on their own drawn maps can
// therefore disagree on d — a protocol-splitting bug this function avoids
// by first canonicalizing the bicolored graph with the sparse engine, as
// COMPUTE & ORDER does: every agent then runs the search on the identical
// canonical input and extracts the identical d, the one AnalyzeCtx reports.
func CayleyTranslationCount(g *graph.Graph, weight []int, autCap int) (bool, int, error) {
	canon := iso.CanonicalSparse(iso.SparseFromGraph(g, weight))
	return cayleyTranslationCount(context.Background(), g, weight, canon.Perm)
}

// cayleyTranslationCount is CayleyTranslationCount given canon, the sparse
// canonical relabeling of the bicolored graph (g, weight), under ctx.
// AnalyzeCtx passes the relabeling of the search COMPUTE & ORDER already
// ran on the same input. Translation by γ is the vertex map R[γ] of the
// recognized regular subgroup R, so d = #{γ : weight∘R[γ] = weight}.
func cayleyTranslationCount(ctx context.Context, g *graph.Graph, weight []int, canon perm.Perm) (bool, int, error) {
	cg, err := g.Relabel(canon)
	if err != nil {
		return false, 0, err
	}
	cweight := make([]int, g.N())
	for v, w := range weight {
		cweight[canon[v]] = w
	}
	rec, err := group.RecognizeCtx(ctx, cg)
	if err != nil {
		return false, 0, fmt.Errorf("elect: Cayley test: %w", err)
	}
	if !rec.IsCayley {
		return false, 0, nil
	}
	d := 0
	for _, t := range rec.Regular {
		if preserves(t, cweight) {
			d++
		}
	}
	return true, d, nil
}

// preserves reports whether the vertex map t preserves every weight.
func preserves(t perm.Perm, weight []int) bool {
	for v, w := range weight {
		if weight[t[v]] != w {
			return false
		}
	}
	return true
}

// CayleyOptions configures the Section 4 protocol.
type CayleyOptions struct {
	// Ordering selects the ≺ implementation.
	Ordering order.Ordering
	// FallbackToElect runs plain ELECT when the drawn map is not a Cayley
	// graph (the paper's protocol is only specified for Cayley graphs;
	// with the fallback the protocol degrades to Theorem 3.1 behaviour).
	FallbackToElect bool
}

// ErrNotCayley is reported when the network is not a Cayley graph and no
// fallback was requested.
var ErrNotCayley = errors.New("elect: network is not a Cayley graph")

// CayleyElect returns the effectual protocol of Section 4: after
// MAP-DRAWING, every agent tests whether the network is a Cayley graph and,
// if so, uses the translation structure to decide solvability before
// reducing (Theorem 4.1).
//
// Because translations act freely, all translation classes share one size
// d = |{translations preserving the home-base set}|. When d > 1, the
// natural generator labeling is preserved by those d translations, so the
// label-equivalence classes have size d and Theorem 2.1 makes election
// impossible; every agent reports failure independently.
//
// When d = 1 the paper says to run ELECT "using equivalence classes for
// translations instead of equivalence classes for arbitrary automorphisms".
// Taken literally this is under-specified: with d = 1 all translation
// classes are singletons, and two distinct singleton classes can be
// automorphism-equivalent (e.g. the two home-bases of C6 with blacks
// {0,2}), so Lemma 3.1's order ≺ cannot rank them and the agents cannot
// agree on C_1. This implementation therefore reduces over the
// automorphism-equivalence classes (always strictly ordered by Lemma 3.1);
// since translation classes refine automorphism classes, d divides every
// automorphism class size, so this loses nothing: d > 1 ⟹ gcd > 1. The
// experiment suite validates the combined decision — elect iff the
// automorphism-class gcd is 1 — against the exact Theorem 2.1 oracle on the
// whole Cayley sweep (see DESIGN.md §6 and EXPERIMENTS.md E5).
func CayleyElect(opt CayleyOptions) sim.Protocol {
	return func(a *sim.Agent) (sim.Outcome, error) {
		m, err := MapDraw(a)
		if err != nil {
			return sim.Outcome{}, err
		}
		isCayley, d, err := CayleyTranslationCount(m.G, m.Weight, 0)
		if err != nil {
			return sim.Outcome{}, err
		}
		if !isCayley {
			if opt.FallbackToElect {
				k := newKnowledge(a, m, opt.Ordering)
				return runReduction(k)
			}
			return sim.Outcome{}, ErrNotCayley
		}
		if d > 1 {
			// Impossible (Theorem 4.1 via Theorem 2.1). Every agent reaches
			// this conclusion from its own map; no coordination is needed.
			return sim.Outcome{Role: sim.RoleUnsolvable}, nil
		}
		k := newKnowledge(a, m, opt.Ordering)
		return runReduction(k)
	}
}
