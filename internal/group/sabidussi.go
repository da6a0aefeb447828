package group

import (
	"context"
	"errors"

	"repro/internal/graph"
	"repro/internal/perm"
)

// This file implements Sabidussi's characterization, which the paper's
// Section 4 invokes to explain why the Petersen counterexample does not
// contradict Theorem 4.1: every vertex-transitive graph G is a quotient of
// a Cayley graph, G ≅ Cay(Γ, S)/H with Γ = Aut(G), H = stab(u₀) and
// S = {φ ∈ Γ : d(φ(u₀), u₀) = 1}. "The quotient operation seems therefore
// enough to destroy some of the properties of translations in Cayley
// graphs" — constructing the quotient makes that destruction inspectable.

// Sabidussi is the coset construction for a vertex-transitive graph. It
// lists H and one representative per coset, never Γ itself.
type Sabidussi struct {
	// Stabilizer is H = stab(u₀) (u₀ = vertex 0), in lexicographic order
	// of image arrays; its first element is the identity.
	Stabilizer []perm.Perm
	// Reps[v] is the lexicographically first automorphism a_v with
	// a_v(u₀) = v: the left coset {φ : φ(u₀) = v} = a_v·H corresponds to
	// vertex v of the input graph.
	Reps []perm.Perm
	// Quotient is the coset graph Cay(Γ, S)/H: vertices are the cosets,
	// with an edge {C, C'} iff some a ∈ C, b ∈ C' satisfy a⁻¹b ∈ S.
	Quotient *graph.Graph
}

// SabidussiQuotient computes the coset construction for a connected
// vertex-transitive graph. One AutSearch takes a_v, the first automorphism
// of From(v), for each v ≠ 0, and then enumerates H from From(0); a graph
// with no a_v for some v is refused as not vertex-transitive before H is
// listed. The search's budget of dead ends (searchBudget) bounds H: every
// element after the first costs at least one, so a stabilizer of more than
// 2²¹ elements returns ErrUndecided (K_n from n = 11 on, |H| = (n−1)!), and
// at most about 2²¹ permutations of n ints are ever held.
//
// The quotient needs no search. Cosets a_v·H and a_w·H are adjacent iff
// a_v⁻¹(w) ∈ N(u₀): for a = a_v·h, a⁻¹b(u₀) = h⁻¹(a_v⁻¹(w)), and h⁻¹ fixes
// u₀ and so maps N(u₀) onto itself, so every element of the coset answers
// alike. a_v is an automorphism carrying u₀ to v, so that holds iff
// w ∈ N(v): numbered by v, the quotient is g's simple graph, which is
// Sabidussi's theorem, and the tests check it against the closure's
// all-pairs coset scan.
func SabidussiQuotient(g *graph.Graph) (*Sabidussi, error) {
	n := g.N()
	if n == 0 {
		return nil, errors.New("group: empty graph")
	}
	if !g.IsConnected() {
		return nil, errors.New("group: graph must be connected")
	}
	s := &Sabidussi{Reps: make([]perm.Perm, n)}
	search := NewAutSearch(context.Background(), g, nil, false)
	for v := 1; v < n; v++ {
		a, err := search.From(v).Next()
		if err != nil {
			return nil, err
		}
		if a == nil {
			return nil, errors.New("group: graph is not vertex-transitive")
		}
		s.Reps[v] = a
	}
	for it := search.From(0); ; {
		h, err := it.Next()
		if err != nil {
			return nil, err
		}
		if h == nil {
			break
		}
		s.Stabilizer = append(s.Stabilizer, h)
	}
	s.Reps[0] = s.Stabilizer[0]
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for _, w := range g.NeighborSet(v) {
			if v < w {
				b.AddEdge(v, w)
			}
		}
	}
	s.Quotient = b.Graph()
	return s, nil
}

// CayleyOrder returns |Γ|, the order of the covering Cayley graph
// Cay(Aut(G), S) whose quotient the graph is.
func (s *Sabidussi) CayleyOrder() int { return len(s.Reps) * len(s.Stabilizer) }

// StabilizerOrder returns |H|; the quotient identifies |H| vertices of the
// covering Cayley graph into one, which is what destroys the translation
// structure (Section 4's closing observation).
func (s *Sabidussi) StabilizerOrder() int { return len(s.Stabilizer) }
