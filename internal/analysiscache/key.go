package analysiscache

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/elect"
	"repro/internal/graph"
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

// CanonicalKey is the key a canonical-mode Cache files (g, homes) under:
// the Word of elect.Search, the canonical form of the home-weighted colored
// graph. Two instances share it exactly when a graph isomorphism maps one
// onto the other carrying home multiplicities along, so N clients
// submitting renumbered copies of one instance coalesce onto a single
// analysis. The word is the sparse engine's O(n+m) one, so a key stays
// small next to the cache's shard budget at any size. Get computes the key
// itself, from the one search a miss's analysis then continues from; this
// function serves callers that need the key without the cache (it costs
// one canonical-labeling search).
func CanonicalKey(g *graph.Graph, homes []int) string {
	res, err := elect.Search(context.Background(), g, homes)
	if err != nil {
		// Background is never canceled.
		panic("analysiscache: unreachable: uncancelable search failed: " + err.Error())
	}
	return string(res.Word)
}
