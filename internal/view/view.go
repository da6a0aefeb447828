// Package view implements Yamashita–Kameda views of edge-labeled, bicolored
// anonymous networks, the machinery behind the paper's necessary condition
// for election (Theorem 2.1).
//
// The view V(v) of a node v is the infinite edge-labeled rooted tree of all
// labeled walks out of v. Two nodes compute identically in an anonymous
// network iff their views are label-isomorphic. By Norris's theorem, views
// are equal iff they agree to depth n−1, so view equivalence is decidable;
// this package decides it by synchronized partition refinement (depth-k
// classes are exactly k rounds of refinement), keeps the explicit tree
// construction for display and cross-checking, and computes the
// symmetricity σ_ℓ(G) (the common size of the view classes) per labeling.
package view

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
)

// Classes holds the view-equivalence classes of a labeled bicolored graph.
type Classes struct {
	// Class[v] is the class index of node v (indices are dense, starting
	// at 0, ordered by smallest member).
	Class []int
	// Members[i] lists the nodes of class i, ascending.
	Members [][]int
}

// depthClasses computes the partition of nodes by view-isomorphism to the
// given depth, via synchronized refinement:
//
//	class_0(v)   = (color(v), deg(v))
//	class_k+1(v) = (class_k(v), multiset over ports p of
//	                 (ℓ_v(p), ℓ_w(twin p), class_k(w)))
//
// which mirrors the recursive definition of V^(k)(v) in the paper's proof
// of Theorem 2.1.
func depthClasses(g *graph.Graph, l graph.EdgeLabeling, colors []int, depth int) []int {
	n := g.N()
	cls := make([]int, n)
	key := make([]string, n)
	for v := 0; v < n; v++ {
		col := 0
		if colors != nil {
			col = colors[v]
		}
		key[v] = fmt.Sprintf("%d|%d", col, g.Deg(v))
	}
	cls = densify(key)
	for k := 0; k < depth; k++ {
		next := make([]string, n)
		for v := 0; v < n; v++ {
			parts := make([]string, 0, g.Deg(v))
			for p, h := range g.Ports(v) {
				parts = append(parts, fmt.Sprintf("%d:%d:%d", l[v][p], l[h.To][h.Twin], cls[h.To]))
			}
			sort.Strings(parts)
			next[v] = fmt.Sprintf("%d#%s", cls[v], strings.Join(parts, ","))
		}
		newCls := densify(next)
		if equalInts(newCls, cls) {
			return cls // stabilized early; deeper views agree
		}
		cls = newCls
	}
	return cls
}

// densify maps distinct strings to dense ints, ordered by first occurrence
// of the smallest node — we instead order classes canonically by sorted key
// so results are reproducible.
func densify(keys []string) []int {
	uniq := append([]string(nil), keys...)
	sort.Strings(uniq)
	id := make(map[string]int)
	next := 0
	for _, k := range uniq {
		if _, ok := id[k]; !ok {
			id[k] = next
			next++
		}
	}
	out := make([]int, len(keys))
	for i, k := range keys {
		out[i] = id[k]
	}
	return out
}

func equalInts(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ComputeClasses returns the view-equivalence classes of (g, l, colors).
// colors may be nil (all white). Norris's theorem bounds the needed depth
// by n−1; refinement stops as soon as it stabilizes.
func ComputeClasses(g *graph.Graph, l graph.EdgeLabeling, colors []int) (*Classes, error) {
	if err := l.Validate(g); err != nil {
		return nil, err
	}
	cls := depthClasses(g, l, colors, max(g.N()-1, 0))
	return fromAssignment(cls), nil
}

func fromAssignment(cls []int) *Classes {
	// Renumber classes by smallest member.
	first := map[int]int{}
	for v, c := range cls {
		if _, ok := first[c]; !ok {
			first[c] = v
		}
	}
	type pair struct{ min, old int }
	var ps []pair
	for c, m := range first {
		ps = append(ps, pair{m, c})
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].min < ps[j].min })
	renum := make(map[int]int, len(ps))
	for i, p := range ps {
		renum[p.old] = i
	}
	out := &Classes{Class: make([]int, len(cls)), Members: make([][]int, len(ps))}
	for v, c := range cls {
		nc := renum[c]
		out.Class[v] = nc
		out.Members[nc] = append(out.Members[nc], v)
	}
	return out
}

// Count returns the number of classes.
func (c *Classes) Count() int { return len(c.Members) }

// Sizes returns the class sizes in class order.
func (c *Classes) Sizes() []int {
	out := make([]int, len(c.Members))
	for i, m := range c.Members {
		out[i] = len(m)
	}
	return out
}

// Symmetricity returns σ_ℓ(G): the common size of all view classes. In a
// connected graph all classes have the same size (Yamashita–Kameda); the
// second return value reports whether that held (it always should — a false
// indicates a non-connected input or an internal error).
func (c *Classes) Symmetricity() (int, bool) {
	if len(c.Members) == 0 {
		return 0, false
	}
	s := len(c.Members[0])
	for _, m := range c.Members {
		if len(m) != s {
			return 0, false
		}
	}
	return s, true
}

// Tree is an explicit truncated view V^(k)(v): a rooted tree whose edges
// carry the pair of labels of the graph edge they traverse, and whose nodes
// carry the black/white color. Used for display (Figure 2) and as an oracle
// in tests; the refinement path above is the efficient implementation.
type Tree struct {
	Color int
	// Children are ordered by (LabelHere, LabelThere) then recursively;
	// ordering is canonical so DeepEqual on rendered forms is meaningful.
	Children []TreeEdge
}

// TreeEdge is a downward edge of a view tree.
type TreeEdge struct {
	LabelHere  int // label at the parent's graph node
	LabelThere int // label at the child's graph node
	Child      *Tree
}

// BuildTree constructs V^(depth)(v) explicitly. Exponential in depth; keep
// depth small (tests use depth <= 6).
func BuildTree(g *graph.Graph, l graph.EdgeLabeling, colors []int, v, depth int) *Tree {
	col := 0
	if colors != nil {
		col = colors[v]
	}
	t := &Tree{Color: col}
	if depth == 0 {
		return t
	}
	for p, h := range g.Ports(v) {
		t.Children = append(t.Children, TreeEdge{
			LabelHere:  l[v][p],
			LabelThere: l[h.To][h.Twin],
			Child:      BuildTree(g, l, colors, h.To, depth-1),
		})
	}
	sort.Slice(t.Children, func(i, j int) bool {
		a, b := t.Children[i], t.Children[j]
		if a.LabelHere != b.LabelHere {
			return a.LabelHere < b.LabelHere
		}
		if a.LabelThere != b.LabelThere {
			return a.LabelThere < b.LabelThere
		}
		return a.Child.render() < b.Child.render()
	})
	return t
}

// render serializes the tree canonically.
func (t *Tree) render() string {
	var b strings.Builder
	t.renderTo(&b)
	return b.String()
}

func (t *Tree) renderTo(b *strings.Builder) {
	fmt.Fprintf(b, "c%d(", t.Color)
	for i, e := range t.Children {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(b, "%d/%d->", e.LabelHere, e.LabelThere)
		e.Child.renderTo(b)
	}
	b.WriteByte(')')
}

// Equal reports whether two view trees are label-isomorphic (children are
// canonically ordered, so structural equality suffices).
func (t *Tree) Equal(o *Tree) bool { return t.render() == o.render() }

// String renders the tree canonically (one line).
func (t *Tree) String() string { return t.render() }
