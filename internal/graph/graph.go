// Package graph provides the undirected multigraph substrate used throughout
// the reproduction of "Can we elect if we cannot compare?" (SPAA 2003).
//
// Graphs are anonymous: nodes carry no labels. What a node does have is an
// ordered list of ports (half-edges). A port is identified by its index at
// the node, but protocol-level code never sees these indices directly: the
// simulator (internal/sim) wraps them in opaque, incomparable symbols, as the
// qualitative model demands. Multigraphs with parallel edges and loops are
// supported because the paper's Figure 2(c) counterexample needs them (a
// loop contributes two distinct ports at its node).
package graph

import (
	"errors"
	"fmt"
)

// Half is a half-edge (port) at some node.
type Half struct {
	Edge int // edge identifier, shared with the twin half-edge
	To   int // node at the other end (equal to the owner for loops)
	Twin int // port index of the twin half-edge at To
}

// Graph is an immutable undirected multigraph with loops.
// Construct one with a Builder or a generator from this package.
type Graph struct {
	halves [][]Half
	m      int
}

// Builder accumulates edges and produces an immutable Graph.
type Builder struct {
	halves [][]Half
	m      int
}

// NewBuilder returns a Builder for a graph on n isolated nodes.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Builder{halves: make([][]Half, n)}
}

// AddEdge adds an undirected edge {u, v} (u == v adds a loop, which occupies
// two ports at u) and returns its edge identifier.
func (b *Builder) AddEdge(u, v int) int {
	n := len(b.halves)
	if u < 0 || u >= n || v < 0 || v >= n {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, n))
	}
	id := b.m
	b.m++
	pu := len(b.halves[u])
	if u == v {
		// A loop: two consecutive ports at u, twinned with each other.
		b.halves[u] = append(b.halves[u],
			Half{Edge: id, To: u, Twin: pu + 1},
			Half{Edge: id, To: u, Twin: pu})
		return id
	}
	pv := len(b.halves[v])
	b.halves[u] = append(b.halves[u], Half{Edge: id, To: v, Twin: pv})
	b.halves[v] = append(b.halves[v], Half{Edge: id, To: u, Twin: pu})
	return id
}

// Graph freezes the builder. The builder must not be used afterwards.
func (b *Builder) Graph() *Graph {
	g := &Graph{halves: b.halves, m: b.m}
	b.halves = nil
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.halves) }

// M returns the number of edges (a loop counts once).
func (g *Graph) M() int { return g.m }

// Deg returns the degree of v, i.e. its number of ports
// (a loop contributes 2).
func (g *Graph) Deg(v int) int { return len(g.halves[v]) }

// Port returns the half-edge at port index p of node v.
func (g *Graph) Port(v, p int) Half { return g.halves[v][p] }

// Ports returns the half-edges of v. The slice must not be modified.
func (g *Graph) Ports(v int) []Half { return g.halves[v] }

// NeighborSet returns the distinct neighbors of v (excluding v itself even
// if v has a loop), in increasing order.
func (g *Graph) NeighborSet(v int) []int {
	seen := make(map[int]bool)
	var out []int
	for _, h := range g.halves[v] {
		if h.To != v && !seen[h.To] {
			seen[h.To] = true
			out = append(out, h.To)
		}
	}
	sortInts(out)
	return out
}

// HasEdge reports whether at least one edge joins u and v.
func (g *Graph) HasEdge(u, v int) bool {
	for _, h := range g.halves[u] {
		if h.To == v {
			return true
		}
	}
	return false
}

// EdgeEndpoints returns, for every edge id, its two endpoints (u <= v).
func (g *Graph) EdgeEndpoints() [][2]int {
	out := make([][2]int, g.m)
	for i := range out {
		out[i] = [2]int{-1, -1}
	}
	for v, hs := range g.halves {
		for _, h := range hs {
			e := out[h.Edge]
			if e[0] == -1 {
				out[h.Edge] = [2]int{v, h.To}
			}
		}
	}
	for i, e := range out {
		if e[0] > e[1] {
			out[i] = [2]int{e[1], e[0]}
		}
	}
	return out
}

// IsSimple reports whether g has no loops and no parallel edges.
func (g *Graph) IsSimple() bool {
	// seenAt[w] == v+1 once a port of v has led to w.
	seenAt := make([]int, g.N())
	for v, hs := range g.halves {
		for _, h := range hs {
			if h.To == v || seenAt[h.To] == v+1 {
				return false
			}
			seenAt[h.To] = v + 1
		}
	}
	return true
}

// IsRegular reports whether all nodes have the same degree, and that degree.
func (g *Graph) IsRegular() (bool, int) {
	if g.N() == 0 {
		return true, 0
	}
	d := g.Deg(0)
	for v := 1; v < g.N(); v++ {
		if g.Deg(v) != d {
			return false, -1
		}
	}
	return true, d
}

// BFSDist returns the array of hop distances from src (-1 if unreachable).
func (g *Graph) BFSDist(src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := append(make([]int, 0, g.N()), src)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, h := range g.halves[v] {
			if dist[h.To] == -1 {
				dist[h.To] = dist[v] + 1
				queue = append(queue, h.To)
			}
		}
	}
	return dist
}

// IsConnected reports whether g is connected (the empty graph is connected).
func (g *Graph) IsConnected() bool {
	if g.N() == 0 {
		return true
	}
	for _, d := range g.BFSDist(0) {
		if d == -1 {
			return false
		}
	}
	return true
}

// Diameter returns the diameter of g, or -1 if g is disconnected or empty.
func (g *Graph) Diameter() int {
	if g.N() == 0 {
		return -1
	}
	max := 0
	for v := 0; v < g.N(); v++ {
		for _, d := range g.BFSDist(v) {
			if d == -1 {
				return -1
			}
			if d > max {
				max = d
			}
		}
	}
	return max
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	h := &Graph{halves: make([][]Half, g.N()), m: g.m}
	for v := range g.halves {
		h.halves[v] = append([]Half(nil), g.halves[v]...)
	}
	return h
}

// Relabel returns the graph obtained by renaming node v to perm[v].
// perm must be a permutation of 0..n-1. Port orders follow the original
// node's port order, so the port structure is preserved up to renaming.
func (g *Graph) Relabel(perm []int) (*Graph, error) {
	n := g.N()
	if len(perm) != n {
		return nil, errors.New("graph: permutation length mismatch")
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			return nil, errors.New("graph: not a permutation")
		}
		seen[p] = true
	}
	h := &Graph{halves: make([][]Half, n), m: g.m}
	for v := range g.halves {
		nv := perm[v]
		h.halves[nv] = make([]Half, len(g.halves[v]))
		for p, hf := range g.halves[v] {
			h.halves[nv][p] = Half{Edge: hf.Edge, To: perm[hf.To], Twin: hf.Twin}
		}
	}
	return h, nil
}

// String returns a compact description such as "graph(n=5, m=6)".
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d)", g.N(), g.M())
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
