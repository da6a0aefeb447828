// Package labeling implements edge-labeling analysis for bicolored anonymous
// networks: label-preserving automorphisms and the label-equivalence classes
// ~lab of Definition 2.2, the equal-class-size invariant of Lemma 2.1, the
// necessary condition of Theorem 2.1 (existence of an edge-labeling whose
// label-equivalence classes have size > 1), and the constructive witness
// labeling from the proof of Theorem 4.1 for Cayley graphs.
package labeling

import (
	"cmp"
	"context"
	"errors"
	"slices"

	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/iso"
	"repro/internal/perm"
)

// IsLabelPreserving reports whether the vertex permutation phi is a
// label- and color-preserving automorphism of (g, l, colors), l a valid
// labeling: the port of each node x labeled a maps to the port of φ(x)
// labeled a, which leads to φ of the first port's far end and arrives
// under the same label. Labels at a node being distinct, that is the same
// as preserving, for every pair of nodes, the multiset of (label-here,
// label-there) pairs on their edges. colors may be nil. It sorts each
// node's labels once, then runs in O(|E|).
func IsLabelPreserving(g *graph.Graph, l graph.EdgeLabeling, colors []int, phi perm.Perm) bool {
	if len(phi) != g.N() {
		return false
	}
	m := newMatcher(g, l, colors)
	m.phi = phi
	for x := range phi {
		if !m.maps(x) {
			return false
		}
	}
	return true
}

// LabelPreservingGroup returns the group of label- and color-preserving
// automorphisms of the connected graph (g, l, colors), in lexicographic
// order of image arrays. Labels at a node are distinct, so such an
// automorphism is fixed by the image of vertex 0: for each v it propagates
// φ(0) = v along equally labeled ports and keeps φ if every port matches.
// That is at most n candidates of O(|E|) each, after one sort of each
// node's labels, with no canonical search and no cap. A disconnected graph
// is refused.
func LabelPreservingGroup(g *graph.Graph, l graph.EdgeLabeling, colors []int) ([]perm.Perm, error) {
	if err := l.Validate(g); err != nil {
		return nil, err
	}
	if !g.IsConnected() {
		return nil, errors.New("labeling: graph must be connected")
	}
	n := g.N()
	if n == 0 {
		return []perm.Perm{{}}, nil
	}
	m := newMatcher(g, l, colors)
	m.phi, m.inv = make([]int, n), make([]int, n)
	var out []perm.Perm
	for v := 0; v < n; v++ {
		for x := range m.phi {
			m.phi[x], m.inv[x] = -1, -1
		}
		m.phi[0], m.inv[v] = v, 0
		m.queue = append(m.queue[:0], 0)
		ok := true
		for i := 0; ok && i < len(m.queue); i++ {
			ok = m.maps(m.queue[i])
		}
		if ok {
			out = append(out, append(perm.Perm(nil), m.phi...))
		}
	}
	return out, nil
}

// matcher maps nodes onto their images port by port. ord[off[x]:off[x+1]]
// lists x's ports in increasing order of label; labels at a node being
// distinct, two nodes of equal degree carry the same labels iff their
// lists agree label by label, and then the i-th entries pair the ports.
type matcher struct {
	g        *graph.Graph
	l        graph.EdgeLabeling
	colors   []int
	off, ord []int
	// phi is the vertex map under test, -1 where not yet propagated; inv
	// is its inverse and queue lists the nodes mapped so far.
	phi, inv, queue []int
}

func newMatcher(g *graph.Graph, l graph.EdgeLabeling, colors []int) *matcher {
	n := g.N()
	m := &matcher{g: g, l: l, colors: colors, off: make([]int, n+1)}
	for x := 0; x < n; x++ {
		m.off[x+1] = m.off[x] + g.Deg(x)
	}
	m.ord = make([]int, m.off[n])
	for x := 0; x < n; x++ {
		ps := m.ord[m.off[x]:m.off[x+1]]
		for p := range ps {
			ps[p] = p
		}
		slices.SortFunc(ps, func(p, q int) int { return cmp.Compare(l[x][p], l[x][q]) })
	}
	return m
}

// maps reports whether phi carries node x onto y = phi[x]: x's color and
// degree kept, and each port of x labeled a onto the port of y labeled a,
// with the same label at the far end and the far end w onto phi[w]. Where
// phi[w] is -1 it maps w there instead, unless that image is taken, and
// queues w.
func (m *matcher) maps(x int) bool {
	y := m.phi[x]
	if m.colors != nil && m.colors[x] != m.colors[y] || m.g.Deg(x) != m.g.Deg(y) {
		return false
	}
	qs := m.ord[m.off[y]:m.off[y+1]]
	for i, p := range m.ord[m.off[x]:m.off[x+1]] {
		q := qs[i]
		if m.l[x][p] != m.l[y][q] {
			return false
		}
		h, k := m.g.Port(x, p), m.g.Port(y, q)
		if m.l[h.To][h.Twin] != m.l[k.To][k.Twin] {
			return false
		}
		switch w := h.To; {
		case m.phi[w] == k.To:
		case m.phi[w] < 0 && m.inv[k.To] < 0:
			m.phi[w], m.inv[k.To] = k.To, w
			m.queue = append(m.queue, w)
		default:
			return false
		}
	}
	return true
}

// LabClasses returns the label-equivalence classes (Definition 2.2) of
// the connected graph (g, l, colors): the orbits of the label-preserving
// automorphism group. By Lemma 2.1 all classes have the same size.
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

// labelingPreservedBy attempts to build an edge-labeling preserved by the
// automorphism phi of a simple graph. The port permutation Π maps port
// (v → w) to (φv → φw); a preserved labeling exists iff no Π-orbit visits
// one node twice, and is then built by giving each orbit a fresh label, in
// order of the orbits' first ports. Port p of v is numbered off[v] + p, and
// Π is built in O(|E|) over flat arrays.
func labelingPreservedBy(g *graph.Graph, phi perm.Perm) (graph.EdgeLabeling, bool) {
	n := g.N()
	off := make([]int, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + g.Deg(v)
	}
	// at[w] is the port of φ(v) leading to w while v's ports are mapped.
	at, pi := make([]int, n), make([]int, off[n])
	for v := 0; v < n; v++ {
		y := phi[v]
		for q, h := range g.Ports(y) {
			at[h.To] = q
		}
		for p, h := range g.Ports(v) {
			pi[off[v]+p] = off[y] + at[phi[h.To]]
		}
	}
	// flat holds every label, -1 until its port's orbit is walked; last[u]
	// is 1 + the label of the last orbit that visited u.
	flat, last := make([]int, off[n]), make([]int, n)
	for i := range flat {
		flat[i] = -1
	}
	l := make(graph.EdgeLabeling, n)
	label := 0
	for v := 0; v < n; v++ {
		l[v] = flat[off[v]:off[v+1]:off[v+1]]
		for p := range l[v] {
			if l[v][p] >= 0 {
				continue
			}
			for u, i := v, off[v]+p; flat[i] < 0; u, i = phi[u], pi[i] {
				if last[u] == label+1 {
					return nil, false
				}
				last[u], flat[i] = label+1, label
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
