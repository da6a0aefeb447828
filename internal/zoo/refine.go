package zoo

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/view"
)

// mapData is the decision-facing form of an instance: the port-labeled
// (multi)graph plus the home-base occupancy of every node. Agents build it
// from their traversal records (walkState.reconstruct); the central oracle
// builds it from the true instance (mapFromGraph). Both feed the same pure
// decision functions, and every decision depends on mapData only through
// numbering-invariant quantities (canonical view classes), so the walker's
// discovery numbering and the true node numbering decide identically.
type mapData struct {
	n     int
	arcs  [][]view.Arc
	homes []int
}

// sortArcs orders every node's arcs by label (labels are distinct per
// node), the canonical presentation both constructions normalize to.
func (m *mapData) sortArcs() {
	for v := range m.arcs {
		arcs := m.arcs[v]
		sort.Slice(arcs, func(i, j int) bool { return arcs[i].Lab < arcs[j].Lab })
	}
}

// mapFromGraph builds mapData from the true instance.
func mapFromGraph(g *graph.Graph, labels graph.EdgeLabeling, homes []int) mapData {
	m := mapData{n: g.N(), arcs: view.Arcs(g, labels), homes: make([]int, g.N())}
	for _, h := range homes {
		m.homes[h]++
	}
	m.sortArcs()
	return m
}

// classes returns the map's view classes, colored by home count, with
// view.Refine's canonical ids: they depend only on the isomorphism type of
// the map, never on its node numbering, so every agent's reconstruction and
// the central oracle rank classes identically.
func (m mapData) classes() []int { return view.Refine(m.arcs, m.homes, m.n) }

// classSizes counts members per class id.
func classSizes(class []int) map[int]int {
	size := make(map[int]int)
	for _, c := range class {
		size[c]++
	}
	return size
}

// singletonHomeWinner returns the node holding exactly one home-base whose
// view class is a singleton, taking the minimal class id when several
// qualify; -1 when none does. This is the shared solvability rule of the
// Dereniowski–Pelc and weak-election kinds: a singleton view class is a
// node every agent can point to unambiguously, so its resident wins.
func singletonHomeWinner(m mapData, class []int) int {
	size := classSizes(class)
	best := -1
	for v := 0; v < m.n; v++ {
		if m.homes[v] != 1 || size[class[v]] != 1 {
			continue
		}
		if best < 0 || class[v] < class[best] {
			best = v
		}
	}
	return best
}

// allSingleton reports whether every view class is a singleton — full
// topology recognition: each node of the map is uniquely identifiable.
func allSingleton(class []int, n int) bool {
	return len(classSizes(class)) == n
}

// canonicalSink runs the canonical greedy dismantling: repeatedly remove
// every dominated vertex of the minimal view class (v is dominated when some
// other live vertex's closed neighborhood contains v's, restricted to live
// vertices). On a dismantlable graph with enough asymmetry this eliminates
// all vertices but one — the sink; otherwise (no dominated vertex, or a
// symmetric final class that would remove everything) it reports failure.
func canonicalSink(m mapData, class []int) (int, bool) {
	adj := make([]map[int]bool, m.n)
	for v := 0; v < m.n; v++ {
		adj[v] = map[int]bool{v: true}
		for _, a := range m.arcs[v] {
			adj[v][a.To] = true
		}
	}
	alive := make([]bool, m.n)
	for i := range alive {
		alive[i] = true
	}
	count := m.n
	for count > 1 {
		var dom []int
		for v := 0; v < m.n; v++ {
			if !alive[v] {
				continue
			}
			for u := range adj[v] {
				if u == v || !alive[u] {
					continue
				}
				contained := true
				for w := range adj[v] {
					if alive[w] && !adj[u][w] {
						contained = false
						break
					}
				}
				if contained {
					dom = append(dom, v)
					break
				}
			}
		}
		if len(dom) == 0 {
			return -1, false
		}
		minC := class[dom[0]]
		for _, v := range dom[1:] {
			if class[v] < minC {
				minC = class[v]
			}
		}
		removing := 0
		for _, v := range dom {
			if class[v] == minC {
				removing++
			}
		}
		if removing == count {
			return -1, false
		}
		for _, v := range dom {
			if class[v] == minC {
				alive[v] = false
			}
		}
		count -= removing
	}
	for v := 0; v < m.n; v++ {
		if alive[v] {
			return v, true
		}
	}
	return -1, false
}

// bfsDist returns the hop distances from src over the map.
func bfsDist(m mapData, src int) []int {
	dist := make([]int, m.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, a := range m.arcs[v] {
			if dist[a.To] < 0 {
				dist[a.To] = dist[v] + 1
				queue = append(queue, a.To)
			}
		}
	}
	return dist
}

// nearestHome returns the single-resident home node canonically nearest the
// sink — minimal (BFS distance, view class id) — or -1 on a tie.
func nearestHome(m mapData, class []int, sink int) int {
	dist := bfsDist(m, sink)
	best := -1
	tie := false
	for v := 0; v < m.n; v++ {
		if m.homes[v] != 1 {
			continue
		}
		if best < 0 {
			best = v
			continue
		}
		switch {
		case dist[v] < dist[best], dist[v] == dist[best] && class[v] < class[best]:
			best, tie = v, false
		case dist[v] == dist[best] && class[v] == class[best]:
			tie = true
		}
	}
	if tie {
		return -1
	}
	return best
}

// decision is the outcome of a kind's pure solvability rule on a map.
type decision struct {
	solvable bool
	// winner is the winning node (in the map's numbering) when solvable;
	// -1 when the quantitative fallback names the winner by identity.
	winner int
	// fallback marks selection's quantitative max-identity tie-break.
	fallback bool
}

// decide applies kind k's solvability rule to the map. It is pure and
// numbering-invariant: every agent's reconstruction and the central oracle
// reach the same verdict and the same physical winner.
func decide(k kind, m mapData) decision {
	class := m.classes()
	switch k {
	case kindDP, kindShadesWeak:
		if w := singletonHomeWinner(m, class); w >= 0 {
			return decision{solvable: true, winner: w}
		}
	case kindShadesStrong:
		if allSingleton(class, m.n) {
			if w := singletonHomeWinner(m, class); w >= 0 {
				return decision{solvable: true, winner: w}
			}
		}
	case kindShadesSelection:
		if w := singletonHomeWinner(m, class); w >= 0 {
			return decision{solvable: true, winner: w}
		}
		return decision{solvable: true, winner: -1, fallback: true}
	case kindUSO:
		if s, ok := canonicalSink(m, class); ok {
			if w := nearestHome(m, class, s); w >= 0 {
				return decision{solvable: true, winner: w}
			}
		}
	}
	return decision{winner: -1}
}
