// Package order implements the COMPUTE & ORDER step of Protocol ELECT:
// node surroundings (Definition 3.1), the equivalence classes of a bicolored
// graph (Definition 2.1, computed equivalently as automorphism orbits or as
// surrounding-isomorphism classes — Lemma 3.1 proves these coincide), and
// the deterministic total order ≺ on classes (Lemma 3.1).
//
// Two implementations of ≺ are provided:
//
//   - the direct order, keyed by (|V|, canonical word of the bicolored
//     surrounding digraph), and
//   - the paper's hair order, keyed by (|V|, maximum hair length, canonical
//     word of the uni-colored digraph obtained by replacing every black node
//     with a white node carrying a white tail of length k+1).
//
// Both are deterministic total orders on isomorphism classes of bicolored
// digraphs, which is all Protocol ELECT requires (every agent must compute
// the same order from its own map). They need not rank classes identically;
// ablation benchmarks compare their cost.
package order

import (
	"bytes"
	"context"
	"encoding/binary"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/iso"
)

// LargeThreshold is the node count at or above which ComputeAndOrder takes
// the large-graph path: one sparse canonical labeling of the whole bicolored
// graph (iso.CanonicalSparseCtx), orbits from its pooled automorphisms
// (iso.SparseOrbitsWith), and positional class keys — the varint-encoded
// sorted canonical positions of each class's members — instead of one
// surrounding canonicalization per class. Positional keys are a third ≺
// implementation: deterministic (canonical positions are
// relabeling-invariant) and total (distinct classes occupy disjoint position
// sets), which is all Protocol ELECT requires of an ordering; like Direct
// versus Hairs, it need not rank classes the same way as the small-graph
// orders. Tests lower this to force the large path onto small instances.
var LargeThreshold = 2048

// keysComputed counts the surrounding keys computed process-wide — one
// canonical-word computation per class keyed, across both the serial and
// the parallel branch of classKeys. Monotonic; snapshot before/after a
// workload for its delta (the same discipline as iso.Stats).
var keysComputed atomic.Int64

// KeysComputed returns the process-global count of surrounding keys
// computed by COMPUTE & ORDER.
func KeysComputed() int64 { return keysComputed.Load() }

// Surrounding returns the surrounding S(u) of node u in the bicolored graph
// (g, colors): the directed graph on V(g) with an arc (x, y) for every edge
// {x, y} with d(u, x) <= d(u, y). Parallel edges contribute multiplicity; a
// loop at x contributes an arc (x, x). colors may be nil (all white).
func Surrounding(g *graph.Graph, colors []int, u int) *iso.Colored {
	n := g.N()
	dist := g.BFSDist(u)
	c := iso.NewColored(n)
	if colors != nil {
		copy(c.Color, colors)
	}
	for _, e := range g.EdgeEndpoints() {
		x, y := e[0], e[1]
		if x == y {
			c.Adj[x][x]++
			continue
		}
		if dist[x] <= dist[y] {
			c.Adj[x][y]++
		}
		if dist[y] <= dist[x] {
			c.Adj[y][x]++
		}
	}
	return c
}

// SurroundingSparse returns the surrounding S(u) as a Sparse digraph in
// O(n + m): the same arc set as Surrounding without the dense adjacency
// matrix, for the large-graph ordering path.
func SurroundingSparse(g *graph.Graph, colors []int, u int) *iso.Sparse {
	dist := g.BFSDist(u)
	edges := g.EdgeEndpoints()
	arcs := make([][2]int, 0, 2*len(edges))
	for _, e := range edges {
		x, y := e[0], e[1]
		if x == y {
			arcs = append(arcs, [2]int{x, x})
			continue
		}
		if dist[x] <= dist[y] {
			arcs = append(arcs, [2]int{x, y})
		}
		if dist[y] <= dist[x] {
			arcs = append(arcs, [2]int{y, x})
		}
	}
	return iso.SparseFromArcs(g.N(), arcs, colors)
}

// Key is a comparable total-order key for a bicolored digraph.
type Key struct {
	N    int
	Hair int // used only by the hair order; 0 in the direct order
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
	// Direct keys a surrounding by the canonical word of the bicolored
	// digraph itself.
	Direct Ordering = iota
	// Hairs keys a surrounding by the paper's Lemma 3.1 construction:
	// (|V|, max hair length, canonical word of the hat transformation).
	Hairs
)

// SurroundingKey computes the ≺ key of a bicolored digraph under the chosen
// ordering.
func SurroundingKey(c *iso.Colored, ord Ordering) Key {
	k, err := surroundingKeyCtx(context.Background(), c, ord)
	if err != nil {
		panic("order: unreachable: uncancelable SurroundingKey failed: " + err.Error())
	}
	return k
}

// surroundingKeyCtx is SurroundingKey with the canonical search running
// under ctx, so a canceled analysis stops mid-word rather than finishing
// the search it is in.
func surroundingKeyCtx(ctx context.Context, c *iso.Colored, ord Ordering) (Key, error) {
	switch ord {
	case Direct:
		r, err := iso.CanonicalCtx(ctx, c)
		if err != nil {
			return Key{}, err
		}
		return Key{N: c.N, Word: r.Word}, nil
	case Hairs:
		k := maxHairLength(c)
		r, err := iso.CanonicalCtx(ctx, hatTransform(c, k))
		if err != nil {
			return Key{}, err
		}
		return Key{N: c.N, Hair: k, Word: r.Word}, nil
	default:
		panic("order: unknown ordering")
	}
}

// maxHairLength returns the maximum length of a hair of the underlying
// undirected graph of c: a maximal path x_0, …, x_k with deg(x_i) = 2 for
// 0 < i < k and deg(x_k) = 1. Zero if there is no hair (no degree-1 node).
func maxHairLength(c *iso.Colored) int {
	n := c.N
	deg := make([]int, n)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if x == y {
				if c.Adj[x][x] > 0 {
					deg[x] += 2 * c.Adj[x][x]
				}
				continue
			}
			m := c.Adj[x][y]
			if c.Adj[y][x] > m {
				m = c.Adj[y][x]
			}
			deg[x] += m
		}
	}
	best := 0
	for x := 0; x < n; x++ {
		if deg[x] != 1 {
			continue
		}
		// Walk inward from the degree-1 endpoint x_k while degree stays 2.
		length := 0
		prev, cur := -1, x
		for {
			next := -1
			for y := 0; y < n; y++ {
				if y != cur && y != prev && (c.Adj[cur][y] > 0 || c.Adj[y][cur] > 0) {
					next = y
					break
				}
			}
			if next == -1 {
				break
			}
			length++
			if deg[next] != 2 {
				break
			}
			prev, cur = cur, next
		}
		if length > best {
			best = length
		}
	}
	return best
}

// hatTransform returns the uni-colored digraph obtained by recoloring every
// black node white and attaching to it a tail of k+1 fresh white nodes
// (edges of the tail are symmetric arcs). Non-isomorphic bicolored digraphs
// with equal hair bound map to non-isomorphic uni-colored digraphs, which is
// how Lemma 3.1 reduces bicolored ordering to uni-colored ordering.
func hatTransform(c *iso.Colored, k int) *iso.Colored {
	var blacks []int
	for v := 0; v < c.N; v++ {
		if c.Color[v] != 0 {
			blacks = append(blacks, v)
		}
	}
	tail := k + 1
	n := c.N + len(blacks)*tail
	out := iso.NewColored(n)
	for x := 0; x < c.N; x++ {
		copy(out.Adj[x][:c.N], c.Adj[x])
	}
	next := c.N
	for _, b := range blacks {
		prev := b
		for t := 0; t < tail; t++ {
			out.Adj[prev][next] = 1
			out.Adj[next][prev] = 1
			prev = next
			next++
		}
	}
	return out
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
	// Keys[i] is the ≺ key of Classes[i]'s surrounding.
	Keys []Key
	// ClassOf[v] is the index into Classes of node v's class.
	ClassOf []int
	// Tied reports whether two distinct classes of the same color group
	// received equal keys. This cannot happen for the equivalence classes
	// of Definition 2.1 (distinct classes have non-isomorphic surroundings,
	// Lemma 3.1) but can for externally supplied partitions such as the
	// translation classes of Section 4 (see DESIGN.md §6).
	Tied bool
}

// Classes computes the equivalence classes of the bicolored graph
// (g, colors): the orbits of its color-preserving automorphism group,
// equivalently the surrounding-isomorphism classes (Lemma 3.1 proves the
// two definitions coincide). Each class is sorted ascending, classes
// ordered by smallest member.
func Classes(g *graph.Graph, colors []int) [][]int {
	return iso.Orbits(iso.FromGraph(g, colors))
}

// ComputeAndOrder computes the equivalence classes of the bicolored graph
// (g, colors) and orders them by ≺ under the chosen ordering. Graphs with
// at least LargeThreshold nodes take the sparse single-canonicalization
// path; see LargeThreshold.
func ComputeAndOrder(g *graph.Graph, colors []int, ord Ordering) *Ordered {
	o, err := ComputeAndOrderCtx(context.Background(), g, colors, ord)
	if err != nil {
		// Background is never canceled.
		panic("order: unreachable: uncancelable ComputeAndOrder failed: " + err.Error())
	}
	return o
}

// ComputeAndOrderCtx is ComputeAndOrder under a context: cancellation
// propagates into every canonical search it runs (the per-class surrounding
// searches on the small path, the whole-graph sparse search and orbit
// transporter searches on the large path) and surfaces as ctx.Err().
func ComputeAndOrderCtx(ctx context.Context, g *graph.Graph, colors []int, ord Ordering) (*Ordered, error) {
	if g.N() >= LargeThreshold {
		return computeAndOrderLarge(ctx, g, colors)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return orderClassesCtx(ctx, g, colors, Classes(g, colors), ord)
}

// computeAndOrderLarge is the large-graph COMPUTE & ORDER: one sparse
// canonical labeling of the whole bicolored graph, orbits from its pooled
// automorphism generators, and positional class keys. Total cost is one
// canonical search plus O(per-orbit transporter checks), versus one
// surrounding canonicalization per class on the small path.
func computeAndOrderLarge(ctx context.Context, g *graph.Graph, colors []int) (*Ordered, error) {
	sp := iso.SparseFromGraph(g, colors)
	res, err := iso.CanonicalSparseCtx(ctx, sp)
	if err != nil {
		return nil, err
	}
	classes, err := iso.SparseOrbitsWith(ctx, sp, res)
	if err != nil {
		return nil, err
	}
	keysComputed.Add(int64(len(classes)))
	keys := positionalKeys(g.N(), res.Perm, classes)
	return assembleOrdered(g, colors, classes, keys), nil
}

// positionalKeys builds the large-path ≺ keys: class i is keyed by the
// delta-varint encoding of the ascending canonical positions of its members.
// Canonical positions are invariant under relabeling of the input graph, so
// every agent computes identical keys from its own map; classes partition
// the nodes, so distinct classes get distinct words and the order is total.
func positionalKeys(n int, p []int, classes [][]int) []Key {
	keys := make([]Key, len(classes))
	var buf []int
	for i, cl := range classes {
		buf = buf[:0]
		for _, v := range cl {
			buf = append(buf, p[v])
		}
		sort.Ints(buf)
		word := make([]byte, 0, 2*len(buf))
		prev := 0
		for _, pos := range buf {
			word = binary.AppendUvarint(word, uint64(pos-prev))
			prev = pos
		}
		keys[i] = Key{N: n, Word: word}
	}
	return keys
}

// classKeys computes the ≺ keys of the classes' surroundings through a
// bounded worker pool (GOMAXPROCS workers). Canonical-word work is deduped
// per class: only each class's representative (smallest member) is keyed,
// never every node. Workers draw class indices from a channel and write to
// disjoint slots of an index-addressed slice, so the merged result is
// deterministic — identical for any worker count or completion order.
func classKeys(ctx context.Context, g *graph.Graph, colors []int, classes [][]int, ord Ordering) ([]Key, error) {
	keysComputed.Add(int64(len(classes)))
	keys := make([]Key, len(classes))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(classes) {
		workers = len(classes)
	}
	if workers <= 1 {
		for i, cl := range classes {
			k, err := surroundingKeyCtx(ctx, Surrounding(g, colors, cl[0]), ord)
			if err != nil {
				return nil, err
			}
			keys[i] = k
		}
		return keys, nil
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	var firstErr atomic.Pointer[error]
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if firstErr.Load() != nil {
					continue // drain: a sibling already failed
				}
				k, err := surroundingKeyCtx(ctx, Surrounding(g, colors, classes[i][0]), ord)
				if err != nil {
					firstErr.CompareAndSwap(nil, &err)
					continue
				}
				keys[i] = k
			}
		}()
	}
	for i := range classes {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if ep := firstErr.Load(); ep != nil {
		return nil, *ep
	}
	return keys, nil
}

// NodeKeys returns the ≺ key of every node's surrounding, computing one
// canonical word per class (members of a class share their surrounding's
// isomorphism class, hence its key) through the bounded parallel pool.
func NodeKeys(g *graph.Graph, colors []int, classes [][]int, ord Ordering) []Key {
	keys, err := classKeys(context.Background(), g, colors, classes, ord)
	if err != nil {
		panic("order: unreachable: uncancelable NodeKeys failed: " + err.Error())
	}
	out := make([]Key, g.N())
	for i, cl := range classes {
		for _, v := range cl {
			out[v] = keys[i]
		}
	}
	return out
}

// OrderClasses orders an externally supplied partition of the nodes (for
// example the translation classes of Section 4) by the ≺ keys of its
// members' surroundings, black classes first. All members of a supplied
// class must be mutually equivalent (share the surrounding); the key of the
// smallest member is used. Ties between distinct classes set Tied.
func OrderClasses(g *graph.Graph, colors []int, classes [][]int, ord Ordering) *Ordered {
	o, err := orderClassesCtx(context.Background(), g, colors, classes, ord)
	if err != nil {
		panic("order: unreachable: uncancelable OrderClasses failed: " + err.Error())
	}
	return o
}

// orderClassesCtx keys the classes under ctx and assembles the protocol
// order.
func orderClassesCtx(ctx context.Context, g *graph.Graph, colors []int, classes [][]int, ord Ordering) (*Ordered, error) {
	keys, err := classKeys(ctx, g, colors, classes, ord)
	if err != nil {
		return nil, err
	}
	return assembleOrdered(g, colors, classes, keys), nil
}

// assembleOrdered sorts (classes, keys) into protocol order — black classes
// first, each color group by ≺ — and builds the Ordered result.
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
	out := &Ordered{ClassOf: make([]int, g.N())}
	for i, e := range entries {
		out.Classes = append(out.Classes, e.members)
		out.Keys = append(out.Keys, e.key)
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
