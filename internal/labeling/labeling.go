// Package labeling implements edge-labeling analysis for bicolored anonymous
// networks: label-preserving automorphisms and the label-equivalence classes
// ~lab of Definition 2.2, the equal-class-size invariant of Lemma 2.1, the
// necessary condition of Theorem 2.1 (existence of an edge-labeling whose
// label-equivalence classes have size > 1), and the constructive witness
// labeling from the proof of Theorem 4.1 for Cayley graphs.
package labeling

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/iso"
	"repro/internal/perm"
)

// IsLabelPreserving reports whether the vertex permutation phi is a
// label-preserving (and color-preserving) automorphism of (g, l, colors):
// for every pair of nodes, the multiset of (label-here, label-there) pairs
// on connecting edges is preserved; loops compare unordered label pairs.
// colors may be nil.
func IsLabelPreserving(g *graph.Graph, l graph.EdgeLabeling, colors []int, phi perm.Perm) bool {
	n := g.N()
	if len(phi) != n {
		return false
	}
	if colors != nil {
		for v := 0; v < n; v++ {
			if colors[phi[v]] != colors[v] {
				return false
			}
		}
	}
	// Adjacency (as multiplicity) must be preserved.
	for v := 0; v < n; v++ {
		if g.Deg(v) != g.Deg(phi[v]) {
			return false
		}
	}
	for v := 0; v < n; v++ {
		if !sameLabelMultisets(g, l, v, phi[v], phi) {
			return false
		}
	}
	return true
}

// sameLabelMultisets compares, for each neighbor w of v, the multiset of
// label pairs on v—w edges with that on phi(v)—phi(w) edges.
func sameLabelMultisets(g *graph.Graph, l graph.EdgeLabeling, v, pv int, phi perm.Perm) bool {
	collect := func(x int) map[int][]string {
		out := make(map[int][]string)
		for p, h := range g.Ports(x) {
			if h.To == x {
				// Loop: count once (skip the higher port of the pair) with
				// an unordered label pair.
				if h.Twin < p {
					continue
				}
				a, b := l[x][p], l[x][h.Twin]
				if a > b {
					a, b = b, a
				}
				out[x] = append(out[x], fmt.Sprintf("L%d,%d", a, b))
				continue
			}
			out[h.To] = append(out[h.To], fmt.Sprintf("%d,%d", l[x][p], l[h.To][h.Twin]))
		}
		for _, v := range out {
			sort.Strings(v)
		}
		return out
	}
	mv, mp := collect(v), collect(pv)
	if len(mv) != len(mp) {
		return false
	}
	for w, labs := range mv {
		plabs, ok := mp[phi[w]]
		if !ok || len(plabs) != len(labs) {
			return false
		}
		for i := range labs {
			if labs[i] != plabs[i] {
				return false
			}
		}
	}
	return true
}

// autCap bounds the automorphism group LabelPreservingGroup lists.
const autCap = 1 << 17

// LabelPreservingGroup returns the group of label- and color-preserving
// automorphisms of (g, l, colors), by filtering the full color-preserving
// automorphism group, which it lists; it fails on a group of more than
// 2¹⁷ elements.
func LabelPreservingGroup(g *graph.Graph, l graph.EdgeLabeling, colors []int) ([]perm.Perm, error) {
	if err := l.Validate(g); err != nil {
		return nil, err
	}
	gens := iso.CanonicalSparse(iso.SparseFromGraph(g, colors)).AutoGens
	aut, err := perm.Closure(g.N(), gens, autCap)
	if err != nil {
		return nil, err
	}
	var out []perm.Perm
	for _, a := range aut.Elements() {
		if IsLabelPreserving(g, l, colors, a) {
			out = append(out, a)
		}
	}
	return out, nil
}

// LabClasses returns the label-equivalence classes (Definition 2.2) of
// (g, l, colors): the orbits of the label-preserving automorphism group.
// By Lemma 2.1 all classes have the same size.
func LabClasses(g *graph.Graph, l graph.EdgeLabeling, colors []int) ([][]int, error) {
	grp, err := LabelPreservingGroup(g, l, colors)
	if err != nil {
		return nil, err
	}
	return perm.OrbitsOf(g.N(), grp), nil
}

// SymmetricWitness is the outcome of the Theorem 2.1 existence check.
type SymmetricWitness struct {
	// Labeling is an edge-labeling of the input preserved by Phi.
	Labeling graph.EdgeLabeling
	// Phi is a nontrivial label- and color-preserving automorphism under
	// Labeling; its existence forces all ~lab classes to have size > 1
	// (Lemma 2.1), hence election is impossible (Theorem 2.1).
	Phi perm.Perm
}

// ErrMultigraph is returned by ExistsSymmetricLabeling for non-simple
// graphs, where a vertex permutation does not determine the port mapping.
var ErrMultigraph = errors.New("labeling: symmetric-labeling search requires a simple graph")

// ExistsSymmetricLabeling decides the hypothesis of Theorem 2.1 for a simple
// bicolored graph: does some edge-labeling of (g, colors) admit label-
// equivalence classes of size > 1? Equivalently (all classes share one size
// by Lemma 2.1): does some labeling admit a nontrivial label-preserving
// automorphism?
//
// For each nontrivial color-preserving automorphism φ, a φ-preserved
// labeling exists iff no orbit of φ's induced port permutation contains two
// distinct ports of the same node; labels can then be assigned constant on
// port orbits. The search returns the first witness in lexicographic order
// of φ's image array, or nil if none exists (in which case the Theorem 2.1
// condition fails for every labeling). autCap is unused: the search never
// lists the automorphism group (see ExistsSymmetricLabelingGens).
func ExistsSymmetricLabeling(g *graph.Graph, colors []int, autCap int) (*SymmetricWitness, error) {
	if !g.IsSimple() {
		return nil, ErrMultigraph
	}
	gens := iso.CanonicalSparse(iso.SparseFromGraph(g, colors)).AutoGens
	return ExistsSymmetricLabelingGens(context.Background(), g, gens)
}

// ExistsSymmetricLabelingGens is ExistsSymmetricLabeling for a caller that
// already holds gens, generators of the color-preserving automorphism group
// of (g, colors) — such as the AutoGens of the canonical search COMPUTE &
// ORDER ran on the same instance — under ctx.
//
// On a connected graph, if the gcd of the orbit sizes of gens is 1 it
// returns nil with no search. A label-preserving φ ≠ id fixes no node:
// labels at a node are distinct, so φ fixing a node fixes each of its
// neighbours, and by connectivity every node. Its powers are label-
// preserving too, so they are fixed-point-free or the identity. So some
// power of φ has a prime order q, and all its cycles have length q. Each
// orbit of gens is a union of such cycles, so q divides every orbit size,
// and hence the gcd.
//
// Otherwise it enumerates the fixed-point-free automorphisms of g colored
// by those orbits — exactly the automorphisms of (g, colors) — mapping 0
// to v, for v = 1, …, n−1 in 0's orbit, and returns the first φ for which a
// φ-preserved labeling exists. An automorphism φ ≠ id with a fixed point
// never has one, so this is the first witness in lexicographic order among
// all automorphisms. On a disconnected graph the argument fails, and every
// nontrivial automorphism is tried in the same order. The enumeration polls
// ctx every few hundred nodes, and returns group.ErrUndecided once it has
// exhausted its search budget and ctx.Err() once ctx fires.
func ExistsSymmetricLabelingGens(ctx context.Context, g *graph.Graph, gens []perm.Perm) (*SymmetricWitness, error) {
	if !g.IsSimple() {
		return nil, ErrMultigraph
	}
	n := g.N()
	if n == 0 {
		return nil, nil
	}
	orbits := perm.OrbitsOf(n, gens)
	connected := g.IsConnected()
	if connected {
		d := 0
		for _, o := range orbits {
			d = gcd(d, len(o))
		}
		if d == 1 {
			return nil, nil
		}
	}
	colors := make([]int, n)
	for i, o := range orbits {
		for _, v := range o {
			colors[v] = i
		}
	}
	s := group.NewAutSearch(ctx, g, colors, connected)
	for _, v := range orbits[0] {
		it := s.From(v)
		for {
			phi, err := it.Next()
			if err != nil {
				return nil, err
			}
			if phi == nil {
				break
			}
			if phi.IsIdentity() {
				continue
			}
			if l, ok := labelingPreservedBy(g, phi); ok {
				return &SymmetricWitness{Labeling: l, Phi: phi}, nil
			}
		}
	}
	return nil, nil
}

// portID identifies a port as (node, port index).
type portID struct{ v, p int }

// labelingPreservedBy attempts to build an edge-labeling preserved by the
// automorphism phi of a simple graph. The port permutation Π maps port
// (v → w) to (φv → φw); a preserved labeling exists iff no Π-orbit visits
// one node twice, and is then built by giving each orbit a fresh label.
func labelingPreservedBy(g *graph.Graph, phi perm.Perm) (graph.EdgeLabeling, bool) {
	n := g.N()
	// portIndex[v][w] = port index at v leading to w (simple graph).
	portIndex := make([]map[int]int, n)
	for v := 0; v < n; v++ {
		portIndex[v] = make(map[int]int, g.Deg(v))
		for p, h := range g.Ports(v) {
			portIndex[v][h.To] = p
		}
	}
	next := func(q portID) portID {
		w := g.Port(q.v, q.p).To
		return portID{phi[q.v], portIndex[phi[q.v]][phi[w]]}
	}
	l := make(graph.EdgeLabeling, n)
	for v := range l {
		l[v] = make([]int, g.Deg(v))
		for p := range l[v] {
			l[v][p] = -1
		}
	}
	label := 0
	for v := 0; v < n; v++ {
		for p := range g.Ports(v) {
			if l[v][p] != -1 {
				continue
			}
			// Walk the Π-orbit of (v, p).
			orbit := []portID{{v, p}}
			seen := map[portID]bool{{v, p}: true}
			for q := next(portID{v, p}); !seen[q]; q = next(q) {
				seen[q] = true
				orbit = append(orbit, q)
			}
			// Injectivity per node: the orbit must not contain two ports of
			// the same node.
			nodeSeen := make(map[int]bool)
			for _, q := range orbit {
				if nodeSeen[q.v] {
					return nil, false
				}
				nodeSeen[q.v] = true
			}
			for _, q := range orbit {
				if l[q.v][q.p] != -1 && l[q.v][q.p] != label {
					return nil, false
				}
				l[q.v][q.p] = label
			}
			label++
		}
	}
	return l, true
}

// CayleyNaturalLabeling converts a Cayley structure's generator port map
// into an EdgeLabeling (labels are the generator element indices). This is
// the labeling ℓ_x({x,y}) = x⁻¹y from the proof of Theorem 4.1; every
// translation preserves it, and its label-preserving automorphism group is
// exactly the set of translations, so on a bicolored Cayley graph the ~lab
// classes are exactly the translation classes (all of size d = the number
// of black-preserving translations).
func CayleyNaturalLabeling(c *group.Cayley) graph.EdgeLabeling {
	out := make(graph.EdgeLabeling, len(c.PortGen))
	for v := range c.PortGen {
		out[v] = append([]int(nil), c.PortGen[v]...)
	}
	return out
}

// Fig2cLabeling returns the paper's Figure 2(c) port labels for
// graph.Fig2c(): ring edges labeled 1 clockwise / 2 counterclockwise, mess
// edges ℓx(e1)=ℓy(e2)=3, ℓx(e2)=ℓy(e1)=4, loop extremities 3 and 4. Under
// this labeling every node has the same view, yet the graph is rigid
// (all ~lab classes are singletons) — the converse of Equation 1 fails.
func Fig2cLabeling() graph.EdgeLabeling {
	return graph.EdgeLabeling{
		{1, 2, 3, 4}, // x: ring->y, ring->z, e1, e2
		{2, 1, 4, 3}, // y: ring->x, ring->z, e1, e2
		{2, 1, 3, 4}, // z: ring->y, ring->x, loop, loop
	}
}

// Fig2aLabeling returns the quantitative labeling of the path x—y—z from
// Figure 2(a): ℓx(xy)=1, ℓy(xy)=1, ℓy(yz)=2, ℓz(yz)=1.
func Fig2aLabeling() graph.EdgeLabeling {
	return graph.EdgeLabeling{{1}, {1, 2}, {1}}
}
