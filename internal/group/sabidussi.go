package group

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/iso"
	"repro/internal/perm"
)

// This file implements Sabidussi's characterization, which the paper's
// Section 4 invokes to explain why the Petersen counterexample does not
// contradict Theorem 4.1: every vertex-transitive graph G is a quotient of
// a Cayley graph, G ≅ Cay(Γ, S)/H with Γ = Aut(G), H = stab(u₀) and
// S = {φ ∈ Γ : d(φ(u₀), u₀) = 1}. "The quotient operation seems therefore
// enough to destroy some of the properties of translations in Cayley
// graphs" — constructing the quotient makes that destruction inspectable.

// Sabidussi is the coset construction for a vertex-transitive graph.
type Sabidussi struct {
	// Aut is the full automorphism group of the input.
	Aut *perm.Group
	// Stabilizer is H = stab(u₀) (u₀ = vertex 0).
	Stabilizer []perm.Perm
	// Cosets[v] lists the elements of the left coset {φ : φ(u₀) = v};
	// coset v corresponds to vertex v of the input graph.
	Cosets [][]perm.Perm
	// Quotient is the coset graph Cay(Γ, S)/H: vertices are the cosets,
	// with an edge {C, C'} iff some a ∈ C, b ∈ C' satisfy a⁻¹b ∈ S.
	Quotient *graph.Graph
}

// sabidussiCap bounds the automorphism group SabidussiQuotient lists.
const sabidussiCap = 1 << 17

// SabidussiQuotient computes the coset construction for a connected
// vertex-transitive graph and returns it together with the quotient graph,
// which is guaranteed (and verified by the tests) to be isomorphic to the
// input. It lists the automorphism group, and fails on one of more than
// 2¹⁷ elements.
func SabidussiQuotient(g *graph.Graph) (*Sabidussi, error) {
	if g.N() == 0 {
		return nil, errors.New("group: empty graph")
	}
	if !g.IsConnected() {
		return nil, errors.New("group: graph must be connected")
	}
	gens := iso.CanonicalSparse(iso.SparseFromGraph(g, nil)).AutoGens
	aut, err := perm.Closure(g.N(), gens, sabidussiCap)
	if err != nil {
		return nil, err
	}
	if !aut.IsTransitive() {
		return nil, errors.New("group: graph is not vertex-transitive")
	}
	n := g.N()
	s := &Sabidussi{Aut: aut, Cosets: make([][]perm.Perm, n)}
	// Partition Γ into left cosets of H by the image of u₀ = 0.
	for _, p := range aut.Elements() {
		s.Cosets[p[0]] = append(s.Cosets[p[0]], p)
	}
	s.Stabilizer = s.Cosets[0]
	// Orbit-stabilizer: every coset has size |H|.
	h := len(s.Stabilizer)
	for v, c := range s.Cosets {
		if len(c) != h {
			return nil, fmt.Errorf("group: coset %d has size %d, want %d", v, len(c), h)
		}
	}
	// S = {σ : d(σ(u₀), u₀) = 1} — the automorphisms carrying u₀ to a
	// neighbor. Membership test via a set of keys.
	inS := make(map[string]bool)
	for _, nb := range g.NeighborSet(0) {
		for _, p := range s.Cosets[nb] {
			inS[p.Key()] = true
		}
	}
	// Quotient edges: {v, w} iff some a in coset v, b in coset w have
	// a⁻¹b ∈ S. (Equivalently b = a·σ for σ ∈ S.)
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for w := v + 1; w < n; w++ {
			if cosetAdjacent(s.Cosets[v], s.Cosets[w], inS) {
				b.AddEdge(v, w)
			}
		}
	}
	s.Quotient = b.Graph()
	return s, nil
}

func cosetAdjacent(cv, cw []perm.Perm, inS map[string]bool) bool {
	for _, a := range cv {
		ai := a.Inverse()
		for _, b := range cw {
			// a⁻¹∘b (apply b, then a⁻¹): carries u₀ to a⁻¹(w); the edge
			// exists iff that lands on a neighbor of u₀, i.e. a⁻¹∘b ∈ S.
			if inS[b.Compose(ai).Key()] {
				return true
			}
		}
	}
	return false
}

// QuotientIsomorphicToInput reports whether the quotient reproduces the
// input graph (Sabidussi's theorem says it always does; exposed so tests
// and demos can verify it on each instance).
func (s *Sabidussi) QuotientIsomorphicToInput(g *graph.Graph) bool {
	word := func(h *graph.Graph) []byte { return iso.CanonicalSparse(iso.SparseFromGraph(h, nil)).Word }
	return s.Quotient.N() == g.N() && bytes.Equal(word(s.Quotient), word(g))
}

// CayleyOrder returns |Γ|, the order of the covering Cayley graph
// Cay(Aut(G), S) whose quotient the graph is.
func (s *Sabidussi) CayleyOrder() int { return s.Aut.Order() }

// StabilizerOrder returns |H|; the quotient identifies |H| vertices of the
// covering Cayley graph into one, which is what destroys the translation
// structure (Section 4's closing observation).
func (s *Sabidussi) StabilizerOrder() int { return len(s.Stabilizer) }
