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
	"slices"
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

// Arc is one directed port of a port-labeled graph: the label at its
// tail, the label at its head, and its head.
type Arc struct {
	Lab, Far, To int
}

// Arcs returns the arcs of (g, l) by tail, in port order.
func Arcs(g *graph.Graph, l graph.EdgeLabeling) [][]Arc {
	arcs := make([][]Arc, g.N())
	for v := range arcs {
		for p, h := range g.Ports(v) {
			arcs[v] = append(arcs[v], Arc{Lab: l[v][p], Far: l[h.To][h.Twin], To: h.To})
		}
	}
	return arcs
}

// Refine computes the view classes of the graph whose node v has the arcs
// arcs[v] and the color color[v], by synchronized refinement:
//
//	class_0(v)   = (deg(v), color(v))
//	class_k+1(v) = (class_k(v), multiset over arcs a of v of
//	                 (a.Lab, a.Far, class_k(a.To)))
//
// which mirrors the recursive definition of V^(k)(v) in the paper's proof
// of Theorem 2.1: class_k is the partition by views truncated at depth k.
// It stops once a round splits no class, or after rounds rounds. A class
// id is the rank of its key among the sorted distinct keys of its round,
// so ids are dense and depend only on the isomorphism type of the graph,
// never on its node numbering.
func Refine(arcs [][]Arc, color []int, rounds int) []int {
	n := len(arcs)
	keys := make([]string, n)
	for v := range keys {
		keys[v] = fmt.Sprintf("%d.%d", len(arcs[v]), color[v])
	}
	class := rankKeys(keys)
	for round := 0; round < rounds; round++ {
		for v, as := range arcs {
			parts := make([]string, len(as))
			for i, a := range as {
				parts[i] = fmt.Sprintf("%d.%d.%d", a.Lab, a.Far, class[a.To])
			}
			sort.Strings(parts)
			keys[v] = fmt.Sprintf("%d~%s", class[v], strings.Join(parts, "~"))
		}
		next := rankKeys(keys)
		if samePartition(class, next) {
			return next
		}
		class = next
	}
	return class
}

// rankKeys maps each key to the rank of its value among the sorted
// distinct keys: equal keys get equal ids, and the ids depend only on the
// multiset of keys.
func rankKeys(keys []string) []int {
	uniq := slices.Clone(keys)
	slices.Sort(uniq)
	uniq = slices.Compact(uniq)
	out := make([]int, len(keys))
	for i, k := range keys {
		out[i], _ = slices.BinarySearch(uniq, k)
	}
	return out
}

// samePartition reports whether two dense class assignments induce the
// same partition (ids may differ).
func samePartition(a, b []int) bool {
	fwd, bwd := make([]int, len(a)), make([]int, len(b))
	for i := range a {
		if fwd[a[i]] == 0 && bwd[b[i]] == 0 {
			fwd[a[i]], bwd[b[i]] = b[i]+1, a[i]+1
		} else if fwd[a[i]] != b[i]+1 || bwd[b[i]] != a[i]+1 {
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
	if colors == nil {
		colors = make([]int, g.N())
	}
	return fromAssignment(Refine(Arcs(g, l), colors, max(g.N()-1, 0))), nil
}

// fromAssignment renumbers the dense class ids of cls by smallest member.
func fromAssignment(cls []int) *Classes {
	// renum[c] is 1 + class c's new id, 0 until its first member.
	renum := make([]int, len(cls))
	out := &Classes{Class: make([]int, len(cls))}
	for v, c := range cls {
		if renum[c] == 0 {
			out.Members = append(out.Members, nil)
			renum[c] = len(out.Members)
		}
		out.Class[v] = renum[c] - 1
		out.Members[renum[c]-1] = append(out.Members[renum[c]-1], v)
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
