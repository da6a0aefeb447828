package group

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/iso"
	"repro/internal/perm"
)

// ErrUndecided is returned when the recognizer cannot decide within its
// resource caps (automorphism group too large to enumerate).
var ErrUndecided = errors.New("group: Cayley recognition undecided (automorphism group exceeds cap)")

// Recognition is the result of deciding whether a graph is a Cayley graph.
type Recognition struct {
	// IsCayley reports the decision.
	IsCayley bool
	// Regular, when IsCayley, is the regular subgroup of Aut(G) found
	// (a list of vertex permutations, closed under composition, acting
	// regularly). Regular[v] is the unique element mapping Base to v.
	Regular []perm.Perm
	// Base is the base vertex used to index Regular (always 0).
	Base int
	// Group, when IsCayley, is the abstract group reconstructed from the
	// regular subgroup: element v corresponds to the permutation
	// Regular[v], with the base vertex as identity.
	Group *Group
	// Gens, when IsCayley, is the generating set: the neighbors of Base,
	// as group elements. Cay(Group, Gens) is isomorphic to the input with
	// the identity vertex map (vertex v ↔ element v).
	Gens []int
}

// Recognize decides whether g is a Cayley graph by searching for a regular
// subgroup of Aut(g) (Sabidussi's theorem). The search is deterministic, so
// every caller — in particular every agent of the Section 4 protocol — finds
// the same subgroup for the same input. autCap bounds the automorphism-group
// enumeration (0 selects a default of 2^17 elements).
//
// The paper notes this test is "time-consuming, but decidable"; this
// implementation is exact at the evaluation's laptop scale.
func Recognize(g *graph.Graph, autCap int) (*Recognition, error) {
	return RecognizeCtx(context.Background(), g, autCap)
}

// RecognizeCtx is Recognize under a context: the automorphism search, the
// group closure (once per element) and the regular-subgroup search (once
// per search node) poll ctx, and a fired ctx surfaces as ctx.Err().
func RecognizeCtx(ctx context.Context, g *graph.Graph, autCap int) (*Recognition, error) {
	n := g.N()
	if n == 0 {
		return nil, errors.New("group: empty graph")
	}
	if !g.IsConnected() {
		return &Recognition{IsCayley: false}, nil
	}
	if reg, _ := g.IsRegular(); !reg {
		// Cayley graphs are vertex-transitive, hence regular.
		return &Recognition{IsCayley: false}, nil
	}
	if n == 1 {
		r := &Recognition{IsCayley: true, Regular: []perm.Perm{perm.Identity(1)}, Base: 0}
		r.Group = Cyclic(1)
		return r, nil
	}
	if autCap <= 0 {
		autCap = 1 << 17
	}
	res, err := iso.CanonicalCtx(ctx, iso.FromGraph(g, nil))
	if err != nil {
		return nil, err
	}
	aut, err := perm.ClosureCtx(ctx, n, res.AutoGens, autCap)
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		return nil, ErrUndecided
	}
	if !aut.IsTransitive() {
		return &Recognition{IsCayley: false}, nil
	}
	reg := findRegularSubgroup(ctx, n, aut)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if reg == nil {
		return &Recognition{IsCayley: false}, nil
	}
	rec := &Recognition{IsCayley: true, Regular: reg, Base: 0}
	rec.Group, rec.Gens, err = abstractFromRegular(g, reg)
	if err != nil {
		return nil, fmt.Errorf("group: internal reconstruction error: %w", err)
	}
	return rec, nil
}

// findRegularSubgroup searches Aut for a subgroup acting regularly on the
// n vertices, returning it indexed by image of vertex 0 (reg[v] maps 0 to
// v), or nil if none exists. Deterministic: candidates are scanned in the
// sorted element order produced by perm.Closure. It also returns nil once
// ctx fires.
func findRegularSubgroup(ctx context.Context, n int, aut *perm.Group) []perm.Perm {
	// Candidates for reg[v]: fixed-point-free automorphisms mapping 0 to v
	// (every non-identity element of a regular subgroup is fixed-point-free).
	cand := make([][]perm.Perm, n)
	cand[0] = []perm.Perm{perm.Identity(n)}
	for _, a := range aut.Elements() {
		if a.IsIdentity() {
			continue
		}
		if a.IsFixedPointFree() {
			cand[a[0]] = append(cand[a[0]], a)
		}
	}
	for v := 1; v < n; v++ {
		if len(cand[v]) == 0 {
			return nil
		}
	}
	chosen := make([]perm.Perm, n)
	chosen[0] = perm.Identity(n)
	if search(ctx, n, cand, chosen, 1) {
		return chosen
	}
	return nil
}

// search assigns chosen[v] for all unassigned v, maintaining the invariant
// that the assigned set is product-consistent: for assigned u, v with
// u∘v's image of 0 assigned, chosen must agree. Constraint propagation:
// assigning chosen[v] forces chosen[w] for every product w reachable from
// assigned elements; contradictions backtrack. A fired ctx fails every
// node, unwinding the search.
func search(ctx context.Context, n int, cand [][]perm.Perm, chosen []perm.Perm, from int) bool {
	if ctx.Err() != nil {
		return false
	}
	// Find first unassigned vertex.
	v := -1
	for u := from; u < n; u++ {
		if chosen[u] == nil {
			v = u
			break
		}
	}
	if v == -1 {
		return true // all assigned and consistent: regular subgroup found
	}
	for _, c := range cand[v] {
		// Tentatively assign and propagate closure.
		assigned := map[int]perm.Perm{v: c}
		if propagate(n, chosen, assigned) {
			for u, p := range assigned {
				chosen[u] = p
			}
			if search(ctx, n, cand, chosen, from) {
				return true
			}
			for u := range assigned {
				chosen[u] = nil
			}
		}
	}
	return false
}

// propagate extends the tentative assignment with all forced products.
// Returns false on contradiction; on success, assigned contains every
// newly-forced element (not those already in chosen).
func propagate(n int, chosen []perm.Perm, assigned map[int]perm.Perm) bool {
	get := func(u int) perm.Perm {
		if p := chosen[u]; p != nil {
			return p
		}
		return assigned[u]
	}
	queue := make([]int, 0, len(assigned))
	for u := range assigned {
		queue = append(queue, u)
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		pu := get(u)
		// Close under products with every currently-known element, on both
		// sides, and under inverse.
		var known []int
		for w := 0; w < n; w++ {
			if get(w) != nil {
				known = append(known, w)
			}
		}
		try := func(p perm.Perm) bool {
			img := p[0]
			if ex := get(img); ex != nil {
				return ex.Equal(p)
			}
			assigned[img] = p
			queue = append(queue, img)
			return true
		}
		if !try(pu.Inverse()) {
			return false
		}
		for _, w := range known {
			pw := get(w)
			if !try(pu.Compose(pw)) || !try(pw.Compose(pu)) {
				return false
			}
		}
	}
	return true
}

// abstractFromRegular reconstructs the abstract group and generating set
// from a regular subgroup indexed by image of vertex 0.
func abstractFromRegular(g *graph.Graph, reg []perm.Perm) (*Group, []int, error) {
	n := g.N()
	// mul[u][v]: the element reg[u]∘reg[v] (apply reg[v] first) maps 0 to
	// reg[u](reg[v](0)) = reg[u][v]; since the subgroup is regular that
	// element is reg of that image.
	mul := make([][]int, n)
	for u := 0; u < n; u++ {
		mul[u] = make([]int, n)
		for v := 0; v < n; v++ {
			img := reg[u][reg[v][0]]
			// Verify consistency: reg[img] must equal reg[u]∘reg[v].
			comp := reg[v].Compose(reg[u])
			if !comp.Equal(reg[img]) {
				return nil, nil, fmt.Errorf("regular subgroup not closed at (%d,%d)", u, v)
			}
			mul[u][v] = img
		}
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
	}
	grp, err := FromTable("Recognized", mul, names)
	if err != nil {
		return nil, nil, err
	}
	gens := g.NeighborSet(0)
	sort.Ints(gens)
	return grp, gens, nil
}

// RecognizedCayley wraps a successful recognition as a Cayley structure on
// the original graph: vertex v is element v, and the port-generator map is
// recovered from the graph (port p of v leads to w, which is the element
// v⁻¹w applied... precisely: the generator is v⁻¹·w).
func (r *Recognition) RecognizedCayley(g *graph.Graph) (*Cayley, error) {
	if !r.IsCayley {
		return nil, errors.New("group: not a Cayley graph")
	}
	n := g.N()
	portGen := make([][]int, n)
	for v := 0; v < n; v++ {
		portGen[v] = make([]int, g.Deg(v))
		for p, h := range g.Ports(v) {
			portGen[v][p] = r.Group.Mul(r.Group.Inv(v), h.To)
		}
	}
	var gens []int
	seen := make(map[int]bool)
	for _, s := range portGen[0] {
		if !seen[s] {
			seen[s] = true
			gens = append(gens, s)
		}
	}
	sort.Ints(gens)
	return &Cayley{Group: r.Group, Gens: gens, G: g, PortGen: portGen}, nil
}
