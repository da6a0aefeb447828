package analysiscache

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/elect"
	"repro/internal/graph"
	"repro/internal/iso"
)

// StructuralKey serializes the (graph, homes) pair as node count, sorted
// edge multiset, and sorted home multiset. Two instances share a key
// exactly when they present the same adjacency structure and agent
// placement under the same numbering — isomorphic but differently numbered
// instances hash apart. O(|E| log |E|) and allocation-light: the right
// trade for a campaign, where every seed of an instance shares one
// *graph.Graph value anyway.
func StructuralKey(g *graph.Graph, homes []int) string {
	edges := g.EdgeEndpoints()
	es := make([][2]int, len(edges))
	for i, e := range edges {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		es[i] = [2]int{u, v}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i][0] != es[j][0] {
			return es[i][0] < es[j][0]
		}
		return es[i][1] < es[j][1]
	})
	hs := append([]int(nil), homes...)
	sort.Ints(hs)
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d;e=", g.N())
	for _, e := range es {
		fmt.Fprintf(&b, "%d-%d,", e[0], e[1])
	}
	fmt.Fprintf(&b, ";h=%v", hs)
	return b.String()
}

// CanonicalKey keys the instance by the canonical word of the
// home-weighted colored graph: two instances share a key exactly when a
// graph isomorphism maps one onto the other carrying home multiplicities
// along. This is the daemon's key — N clients submitting renumbered copies
// of one instance coalesce onto a single analysis — and costs one
// canonical-labeling search per lookup, far cheaper than the full analysis
// (Cayley recognition, labeling enumeration) it saves. The word is the
// sparse engine's O(n+m) one, so a key stays small next to the cache's
// shard budget at any size.
func CanonicalKey(g *graph.Graph, homes []int) string {
	colors := elect.BlackColors(g.N(), homes)
	return string(iso.CanonicalSparse(iso.SparseFromGraph(g, colors)).Word)
}
