package graph

import (
	"fmt"

	"repro/internal/lazyrand"
)

// EdgeLabeling assigns a label to every port: L[v][p] is the label, at v, of
// the edge behind port p of node v. The qualitative model requires only that
// labels at a single node be pairwise distinct (Section 1.2); values are
// plain ints here because protocols never see them directly — the simulator
// hands agents opaque symbols instead.
type EdgeLabeling [][]int

// PortLabeling returns the trivial labeling ℓ_v(p) = p (each node labels its
// ports 1..deg in port order — the traditional quantitative convention).
func PortLabeling(g *Graph) EdgeLabeling {
	l := make(EdgeLabeling, g.N())
	for v := range l {
		l[v] = make([]int, g.Deg(v))
		for p := range l[v] {
			l[v][p] = p
		}
	}
	return l
}

// RandomLabeling returns a labeling where each node permutes its port labels
// randomly (deterministic per seed) — an adversarial relabeling of ports.
func RandomLabeling(g *Graph, seed int64) EdgeLabeling {
	rng := lazyrand.New(seed)
	l := make(EdgeLabeling, g.N())
	for v := range l {
		l[v] = rng.Perm(g.Deg(v))
	}
	return l
}

// OrientedCycleLabeling labels every node of Cycle(n) with 1 on its
// clockwise port (towards v+1 mod n) and 2 on its counterclockwise port —
// the symmetric labeling of the Section 1.3 argument and of an oriented
// ring.
func OrientedCycleLabeling(n int) EdgeLabeling {
	g := Cycle(n)
	l := make(EdgeLabeling, n)
	for v := range l {
		l[v] = make([]int, g.Deg(v))
		for p, h := range g.Ports(v) {
			if h.To == (v+1)%n {
				l[v][p] = 1
			} else {
				l[v][p] = 2
			}
		}
	}
	return l
}

// Validate checks that l fits g and that labels are distinct at every node.
func (l EdgeLabeling) Validate(g *Graph) error {
	if len(l) != g.N() {
		return fmt.Errorf("graph: labeling covers %d nodes, graph has %d", len(l), g.N())
	}
	for v := range l {
		if len(l[v]) != g.Deg(v) {
			return fmt.Errorf("graph: node %d has %d labels for %d ports", v, len(l[v]), g.Deg(v))
		}
		seen := make(map[int]bool)
		for _, lab := range l[v] {
			if seen[lab] {
				return fmt.Errorf("graph: node %d repeats label %d", v, lab)
			}
			seen[lab] = true
		}
	}
	return nil
}

// Clone returns a deep copy of the labeling.
func (l EdgeLabeling) Clone() EdgeLabeling {
	out := make(EdgeLabeling, len(l))
	for v := range l {
		out[v] = append([]int(nil), l[v]...)
	}
	return out
}
