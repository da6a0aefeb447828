package order

import (
	"bytes"
	"context"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/iso"
	"repro/internal/perm"
)

// Memo is a one-entry memo of COMPUTE & ORDER, shared by the agents of one
// protocol value. Its zero value is empty and ready; it is safe for
// concurrent use, and a nil *Memo memoizes nothing.
//
// The entry is keyed by the ordering and the whole-graph canonical word. The
// dense word serializes the canonically relabeled colored graph, colors
// included, so two inputs with equal words are isomorphic (Perm_B⁻¹∘Perm_A
// maps A onto B), and orbits and surrounding keys are invariant under
// isomorphism. A hit therefore still runs the caller's own whole-graph
// search, which yields the key and Canon, but skips the per-class
// surrounding searches, the orbit union-find and the sort: each node's class
// is read from the entry by its canonical position, in O(n). The result
// equals, field by field, what ComputeAndOrder computes on the same input.
// The word's code for colors and arc multiplicities is injective at every
// value (iso.Colored's word), so large node weights share the memo too.
//
// One entry bounds memory by construction and still hits almost always: the
// r agents of one run draw isomorphic maps, and a campaign's work list runs
// an instance's seeds back to back. A miss computes as ComputeAndOrder does
// and replaces the entry. Graphs of at least LargeThreshold nodes take the
// large path, already a single search, and bypass the memo.
type Memo struct {
	last atomic.Pointer[memoEntry]
}

// memoEntry is one small-path COMPUTE & ORDER result in canonical
// coordinates. It is immutable once stored, and it shares the Keys and the
// canonical word of the result it was built from, which callers treat as
// read-only.
type memoEntry struct {
	ord  Ordering
	word []byte
	// classAt[pos] is the protocol-order class index of the node at
	// canonical position pos.
	classAt  []int
	keys     []Key
	numBlack int
}

// ComputeAndOrder is the package-level ComputeAndOrder through the memo.
func (m *Memo) ComputeAndOrder(g *graph.Graph, colors []int, ord Ordering) *Ordered {
	o, err := m.ComputeAndOrderCtx(context.Background(), g, colors, ord)
	if err != nil {
		// Background is never canceled.
		panic("order: unreachable: uncancelable ComputeAndOrder failed: " + err.Error())
	}
	return o
}

// ComputeAndOrderCtx is the package-level ComputeAndOrderCtx through the
// memo; with a nil m it is exactly that function.
func (m *Memo) ComputeAndOrderCtx(ctx context.Context, g *graph.Graph, colors []int, ord Ordering) (*Ordered, error) {
	if g.N() >= LargeThreshold {
		return computeAndOrderLarge(ctx, g, colors)
	}
	c := iso.FromGraph(g, colors)
	res, err := iso.CanonicalCtx(ctx, c)
	if err != nil {
		return nil, err
	}
	if e := m.lookup(ord, res.Word); e != nil {
		return e.ordered(res), nil
	}
	o, err := orderClassesCtx(ctx, g, colors, perm.OrbitsOf(g.N(), res.AutoGens), ord)
	if err != nil {
		return nil, err
	}
	o.Canon = res
	m.store(ord, o)
	return o, nil
}

// lookup returns the entry for (ord, word), or nil.
func (m *Memo) lookup(ord Ordering, word []byte) *memoEntry {
	if m == nil {
		return nil
	}
	if e := m.last.Load(); e != nil && e.ord == ord && bytes.Equal(e.word, word) {
		return e
	}
	return nil
}

// store replaces the entry with o, a freshly computed small-path result. A
// tied order is not stored: it ranks its tied classes by the input's node
// numbering, so it is not a function of the isomorphism class.
func (m *Memo) store(ord Ordering, o *Ordered) {
	if m == nil || o.Tied {
		return
	}
	classAt := make([]int, len(o.ClassOf))
	for v, c := range o.ClassOf {
		classAt[o.Canon.Perm[v]] = c
	}
	m.last.Store(&memoEntry{ord: ord, word: o.Canon.Word, classAt: classAt, keys: o.Keys, numBlack: o.NumBlack})
}

// ordered maps the entry onto the input whose canonical search is res. Each
// class lists its members in ascending order, as perm.OrbitsOf does, in one
// backing array.
func (e *memoEntry) ordered(res *iso.Result) *Ordered {
	n, k := len(e.classAt), len(e.keys)
	o := &Ordered{
		Classes:  make([][]int, k),
		NumBlack: e.numBlack,
		Keys:     e.keys,
		ClassOf:  make([]int, n),
		Canon:    res,
	}
	start := make([]int, k+1)
	for v, pos := range res.Perm {
		c := e.classAt[pos]
		o.ClassOf[v] = c
		start[c+1]++
	}
	flat := make([]int, n)
	for c := range o.Classes {
		start[c+1] += start[c]
		o.Classes[c] = flat[start[c]:start[c]:start[c+1]]
	}
	for v, c := range o.ClassOf {
		o.Classes[c] = append(o.Classes[c], v)
	}
	return o
}
