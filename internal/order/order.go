// Package order implements the COMPUTE & ORDER step of Protocol ELECT:
// node surroundings (Definition 3.1), the equivalence classes of a bicolored
// graph (Definition 2.1, computed equivalently as automorphism orbits or as
// surrounding-isomorphism classes — Lemma 3.1 proves these coincide), and
// a deterministic total order ≺ on classes (Lemma 3.1).
//
// Every COMPUTE & ORDER starts from one sparse canonical search of the whole
// bicolored graph: the orbits of its automorphism generators are the
// classes. Two implementations of ≺ rank them, black classes first:
//
//   - the positional order (Direct), by each class's smallest position in
//     that search's canonical labeling, and
//   - the paper's hair order (Hairs), keyed by (|V|, maximum hair length,
//     canonical word of the uni-colored digraph obtained by replacing every
//     black node with a white node carrying a white tail of length k+1).
//
// Both are deterministic total orders, which is all Protocol ELECT requires
// (every agent must compute the same order from its own map). They need not
// rank classes identically; ablation benchmarks compare their cost.
package order

import (
	"bytes"
	"context"
	"sort"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/iso"
	"repro/internal/perm"
)

// LargeThreshold is the node count at or above which the hair order stops
// keying every class's surrounding, one canonical search of an
// O(n+m)-arc hat transformation each, and ranks the classes by position as
// Direct does. elect.AnalyzeCtx skips its n×n oracles at the same size.
// Tests lower it to force the fallback onto small instances.
var LargeThreshold = 2048

// keysComputed counts the classes ranked process-wide: one per class per
// COMPUTE & ORDER, whether the hair order keys its surrounding or the class
// is ranked by position. Monotonic; snapshot before/after a workload for its
// delta (the same discipline as iso.Stats).
var keysComputed atomic.Int64

// KeysComputed returns the process-global count of classes ranked by
// COMPUTE & ORDER, one per class per call.
func KeysComputed() int64 { return keysComputed.Load() }

// Surrounding returns the surrounding S(u) of node u in the bicolored graph
// (g, colors), in O(n+m): the directed graph on V(g) with an arc (x, y) for
// every edge {x, y} with d(u, x) <= d(u, y). Parallel edges contribute
// multiplicity; a loop at x contributes one arc (x, x). colors may be nil
// (all white).
func Surrounding(g *graph.Graph, colors []int, u int) *iso.Sparse {
	return iso.SparseFromArcs(g.N(), surroundingArcs(nil, g.EdgeEndpoints(), g.BFSDist(u)), colors)
}

// surroundingArcs appends to dst the arcs of the surrounding whose centre
// has BFS distances dist.
func surroundingArcs(dst [][2]int, edges [][2]int, dist []int) [][2]int {
	for _, e := range edges {
		x, y := e[0], e[1]
		if dist[x] <= dist[y] {
			dst = append(dst, [2]int{x, y})
		}
		if dist[y] <= dist[x] && x != y {
			dst = append(dst, [2]int{y, x})
		}
	}
	return dst
}

// Key is the hair-order key of a bicolored digraph: two digraphs get equal
// keys iff they are isomorphic.
type Key struct {
	N    int
	Hair int
	Word []byte
}

// Compare returns -1, 0, +1 ordering keys by (N, Hair, Word).
func (k Key) Compare(o Key) int {
	switch {
	case k.N != o.N:
		if k.N < o.N {
			return -1
		}
		return 1
	case k.Hair != o.Hair:
		if k.Hair < o.Hair {
			return -1
		}
		return 1
	default:
		return bytes.Compare(k.Word, o.Word)
	}
}

// Ordering names one of the two ≺ implementations.
type Ordering int

const (
	// Direct ranks classes by their smallest position in the canonical
	// labeling of the whole bicolored graph. Relabeling the graph can move
	// a node only to the position of another node of its class, so a
	// class's set of positions, and with it the order, is the same on every
	// agent's map; classes are disjoint, so no two share a smallest
	// position.
	Direct Ordering = iota
	// Hairs keys each class's surrounding by the paper's Lemma 3.1
	// construction: (|V|, max hair length, canonical word of the hat
	// transformation). At or above LargeThreshold nodes it ranks by
	// position, as Direct does.
	Hairs
)

// hairKey computes the hair-order key of the bicolored digraph on n nodes
// with the given arcs and colors (nil: all white), whose underlying
// undirected multigraph has maximum hair length k. It appends the hat
// transformation's tails to arcs and canonicalizes the result under ctx, so
// a canceled analysis stops mid-word rather than finishing the search it is
// in.
func hairKey(ctx context.Context, n int, arcs [][2]int, colors []int, k int) (Key, error) {
	arcs, hatN := hatTransform(arcs, n, colors, k)
	r, err := iso.CanonicalSparseCtx(ctx, iso.SparseFromArcs(hatN, arcs, nil))
	if err != nil {
		return Key{}, err
	}
	return Key{N: n, Hair: k, Word: r.Word}, nil
}

// maxHairLength returns the maximum length of a hair of g: a maximal path
// x_0, …, x_k with deg(x_i) = 2 for 0 < i < k and deg(x_k) = 1, a loop
// counting 2 toward its node's degree. Zero if there is no hair (no
// degree-1 node). Every surrounding of g has g as its underlying
// multigraph, so this is the hair bound of each of them; O(n + m).
func maxHairLength(g *graph.Graph) int {
	best := 0
	for x := range g.N() {
		if g.Deg(x) != 1 {
			continue
		}
		// Walk inward from the degree-1 endpoint x_k while degree stays 2.
		// Such a walk has at most one way on, so it never revisits a node.
		length := 0
		prev, cur := -1, x
		for {
			next := -1
			for _, h := range g.Ports(cur) {
				if h.To != cur && h.To != prev {
					next = h.To
					break
				}
			}
			if next == -1 {
				break
			}
			length++
			if g.Deg(next) != 2 {
				break
			}
			prev, cur = cur, next
		}
		best = max(best, length)
	}
	return best
}

// hatTransform appends to arcs, a digraph on n nodes, the tails that turn
// it into the uni-colored digraph obtained by recoloring every node white
// and attaching to each node v colors[v] tails of k+1 fresh white nodes
// (edges of the tail are symmetric arcs), so a node's weight is its tail
// count. It returns the arcs and the transform's node count. Non-isomorphic weighted digraphs with equal node count and
// hair bound map to non-isomorphic uni-colored digraphs, which is how
// Lemma 3.1 reduces bicolored ordering to uni-colored ordering.
//
// The transform is injective because every tail has k+1 edges, longer
// than any hair of G (at most k). Attaching tails only raises degrees, so a
// hair of the transform that starts at a degree-1 node of G stops inside G
// within k edges, unless G is a path whose far end carries exactly one
// tail and nothing else does. Otherwise the hairs with at least k+1 edges
// are exactly those starting at tail ends, and stripping the k+1 edges at
// the degree-1 end of each recovers G, each node's weight being the number
// of tails stripped from it. In the exception the transform is itself a
// path, and the node count and hair bound fix G as the path P_(k+1) with
// one end weighted 1 — unique up to isomorphism.
func hatTransform(arcs [][2]int, n int, colors []int, k int) ([][2]int, int) {
	next := n
	for v, w := range colors {
		for range w {
			prev := v
			for range k + 1 {
				arcs = append(arcs, [2]int{prev, next}, [2]int{next, prev})
				prev = next
				next++
			}
		}
	}
	return arcs, next
}

// Ordered is the result of COMPUTE & ORDER on a bicolored graph: the
// equivalence classes of (g, colors), with home-base (black) classes first,
// each group sorted by ≺.
type Ordered struct {
	// Classes lists the node classes in protocol order: C_1 ≺ … ≺ C_ℓ
	// (black classes), then C_{ℓ+1} ≺ … ≺ C_k (white classes).
	Classes [][]int
	// NumBlack is ℓ, the number of classes containing home-bases.
	NumBlack int
	// Keys[i] is the hair-order key of Classes[i]'s surrounding. Nil when
	// the classes are ranked by position, which keys nothing.
	Keys []Key
	// ClassOf[v] is the index into Classes of node v's class.
	ClassOf []int
	// Tied reports whether two distinct classes of the same color group
	// received equal hair keys. Lemma 3.1 rules this out (distinct classes
	// have non-isomorphic surroundings); tests check it. The positional
	// order never ties.
	Tied bool
	// Canon is the sparse canonical search of the whole bicolored graph
	// that the classes come from. Its Perm is a canonical relabeling and
	// its AutoGens generate the color-preserving automorphism group, so the
	// side analyses of the same (G, p) reuse it instead of searching again.
	Canon *iso.Result
}

// Classes computes the equivalence classes of the bicolored graph
// (g, colors): the orbits of its color-preserving automorphism group,
// equivalently the surrounding-isomorphism classes (Lemma 3.1 proves the
// two definitions coincide), from one canonical search. Each class is
// sorted ascending, classes ordered by smallest member.
func Classes(g *graph.Graph, colors []int) [][]int {
	return perm.OrbitsOf(g.N(), iso.CanonicalSparse(iso.SparseFromGraph(g, colors)).AutoGens)
}

// ComputeAndOrder computes the equivalence classes of the bicolored graph
// (g, colors) and orders them by ≺ under the chosen ordering.
func ComputeAndOrder(g *graph.Graph, colors []int, ord Ordering) *Ordered {
	o, err := ComputeAndOrderCtx(context.Background(), g, colors, ord)
	if err != nil {
		// Background is never canceled.
		panic("order: unreachable: uncancelable ComputeAndOrder failed: " + err.Error())
	}
	return o
}

// ComputeAndOrderCtx is ComputeAndOrder under a context: cancellation
// propagates into every canonical search it runs (the whole-graph search,
// then the hair order's per-class searches) and surfaces as ctx.Err().
//
// One sparse canonical search of the whole bicolored graph yields the
// classes, as the orbits of its automorphism generators (they generate the
// whole group; see iso.CanonicalSparse), and under Direct their order too:
// Direct runs exactly one canonical search at every size. Hairs below
// LargeThreshold adds one search per class.
func ComputeAndOrderCtx(ctx context.Context, g *graph.Graph, colors []int, ord Ordering) (*Ordered, error) {
	res, err := iso.CanonicalSparseCtx(ctx, iso.SparseFromGraph(g, colors))
	if err != nil {
		return nil, err
	}
	classes := perm.OrbitsOf(g.N(), res.AutoGens)
	keysComputed.Add(int64(len(classes)))
	var o *Ordered
	if ord == Hairs && g.N() < LargeThreshold {
		keys, err := hairKeys(ctx, g, colors, classes)
		if err != nil {
			return nil, err
		}
		o = assembleOrdered(g, colors, classes, keys)
	} else {
		o = byPosition(colors, classes, res.Perm)
	}
	o.Canon = res
	return o, nil
}

// byPosition ranks the classes by their smallest canonical position under
// p, black classes first, in one walk over the positions: no key and no
// sort.
func byPosition(colors []int, classes [][]int, p perm.Perm) *Ordered {
	n := len(p)
	// first[q] is 1 + the index of the class whose smallest position is q,
	// or 0.
	first := make([]int, n)
	for i, cl := range classes {
		least := n
		for _, v := range cl {
			least = min(least, p[v])
		}
		first[least] = i + 1
	}
	var black, white [][]int
	for _, i := range first {
		if i == 0 {
			continue
		}
		if cl := classes[i-1]; colors != nil && colors[cl[0]] != 0 {
			black = append(black, cl)
		} else {
			white = append(white, cl)
		}
	}
	// The walk is done with first, so it becomes ClassOf.
	o := &Ordered{Classes: append(black, white...), NumBlack: len(black), ClassOf: first}
	for i, cl := range o.Classes {
		for _, v := range cl {
			o.ClassOf[v] = i
		}
	}
	return o
}

// hairKeys computes the hair-order keys of the classes' surroundings, one
// class after another: only each class's representative (smallest member)
// is keyed, never every node. Each class's surrounding and hat
// transformation are one arc list, and g's hair bound is computed once;
// the canonical searches recycle their own state (iso's statePool).
// Keying serially beat a GOMAXPROCS worker pool even for one caller once
// both recycled their state, and callers such as electd already run
// analyses side by side (DESIGN.md §8).
func hairKeys(ctx context.Context, g *graph.Graph, colors []int, classes [][]int) ([]Key, error) {
	keys := make([]Key, len(classes))
	edges := g.EdgeEndpoints()
	k := maxHairLength(g)
	for i, cl := range classes {
		key, err := hairKey(ctx, g.N(), surroundingArcs(nil, edges, g.BFSDist(cl[0])), colors, k)
		if err != nil {
			return nil, err
		}
		keys[i] = key
	}
	return keys, nil
}

// assembleOrdered sorts (classes, keys) into protocol order — black classes
// first, each color group by its hair keys — and builds the Ordered result.
func assembleOrdered(g *graph.Graph, colors []int, classes [][]int, keys []Key) *Ordered {
	type entry struct {
		members []int
		key     Key
		black   bool
	}
	entries := make([]entry, len(classes))
	for i, cl := range classes {
		rep := cl[0]
		entries[i] = entry{
			members: cl,
			key:     keys[i],
			black:   colors != nil && colors[rep] != 0,
		}
	}
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].black != entries[j].black {
			return entries[i].black
		}
		return entries[i].key.Compare(entries[j].key) < 0
	})
	out := &Ordered{
		Classes: make([][]int, len(entries)),
		Keys:    make([]Key, len(entries)),
		ClassOf: make([]int, g.N()),
	}
	for i, e := range entries {
		out.Classes[i] = e.members
		out.Keys[i] = e.key
		if e.black {
			out.NumBlack = i + 1
		}
		for _, v := range e.members {
			out.ClassOf[v] = i
		}
		if i > 0 && entries[i-1].black == e.black && entries[i-1].key.Compare(e.key) == 0 {
			out.Tied = true
		}
	}
	return out
}

// Sizes returns the class sizes in protocol order.
func (o *Ordered) Sizes() []int {
	out := make([]int, len(o.Classes))
	for i, c := range o.Classes {
		out[i] = len(c)
	}
	return out
}

// GCD returns the gcd of all class sizes — the quantity Theorem 3.1's
// success condition is stated in.
func (o *Ordered) GCD() int {
	g := 0
	for _, c := range o.Classes {
		g = gcd(g, len(c))
	}
	return g
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
