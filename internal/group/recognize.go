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

// ErrUndecided is returned when an oracle's automorphism search runs out of
// its budget of dead ends (2²¹ of them) before deciding: the Cayley test
// here, and the Theorem 2.1 check in package labeling.
var ErrUndecided = errors.New("group: automorphism search undecided (search budget exhausted)")

// Recognition is the result of deciding whether a graph is a Cayley graph.
type Recognition struct {
	// IsCayley reports the decision.
	IsCayley bool
	// Regular, when IsCayley, is the regular subgroup of Aut(G) found
	// (a list of vertex permutations, closed under composition, acting
	// regularly). Regular[v] is the unique element mapping vertex 0 to v.
	Regular []perm.Perm
}

// RecognizeCtx decides whether g is a Cayley graph by searching for a
// regular subgroup of Aut(g) (Sabidussi's theorem). The search is
// deterministic, so every caller — in particular every agent of the
// Section 4 protocol — finds the same subgroup for the same input.
//
// The paper notes this test is "time-consuming, but decidable". After the
// canonical search of g, transitivity is read off the orbits of its
// automorphism generators. The regular-subgroup search then draws its
// candidates for R[v] — the fixed-point-free automorphisms mapping 0 to v,
// in lexicographic order of their image arrays — lazily from an AutSearch,
// so Aut(g) is never materialized. The canonical search polls ctx once per
// node, the enumeration every few hundred nodes, and the subgroup search
// once per candidate; a fired ctx surfaces as ctx.Err(), an exhausted
// budget of dead ends as ErrUndecided. K9, K10, K6,6, Q6, Q7, C2047 and
// T45×45 stay inside the budget; Q8 and K12 do not.
func RecognizeCtx(ctx context.Context, g *graph.Graph) (*Recognition, error) {
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
	res, err := iso.CanonicalCtx(ctx, iso.FromGraph(g, nil))
	if err != nil {
		return nil, err
	}
	if len(perm.OrbitsOf(n, res.AutoGens)) != 1 {
		return &Recognition{IsCayley: false}, nil
	}
	reg, err := findRegularSubgroup(ctx, g)
	if err != nil {
		return nil, err
	}
	return &Recognition{IsCayley: reg != nil, Regular: reg}, nil
}

// regularSearch is the backtracking search for a regular subgroup R of
// Aut(G), indexed by image of vertex 0: slot w holds R[w], the element
// mapping 0 to w. The assigned slots always form a subgroup whose
// non-identity elements are fixed-point-free.
type regularSearch struct {
	n   int
	aut *AutSearch
	// cand[v] holds the candidates for R[v] enumerated so far, in order;
	// iters[v] resumes their enumeration.
	cand  [][]perm.Perm
	iters []*AutIter
	// elem[w*n:(w+1)*n] is slot w's element when has[w].
	elem []int
	has  []bool
	// trail lists the assigned slots in assignment order, for undo.
	trail []int
	// gens are the candidates chosen on the search path; they generate
	// the assigned subgroup.
	gens []perm.Perm
	tmp  []int
}

// findRegularSubgroup searches Aut(g) for a subgroup acting regularly on
// the vertices and returns it indexed by image of vertex 0, or nil if none
// exists. Candidates are tried in the lexicographic order of their image
// arrays, so the result is that of scanning a sorted element list.
func findRegularSubgroup(ctx context.Context, g *graph.Graph) ([]perm.Perm, error) {
	n := g.N()
	r := &regularSearch{
		n:     n,
		aut:   NewAutSearch(ctx, g, nil, true),
		cand:  make([][]perm.Perm, n),
		iters: make([]*AutIter, n),
		elem:  make([]int, n*n),
		has:   make([]bool, n),
		trail: make([]int, 1, n),
		tmp:   make([]int, n),
	}
	for i := range n {
		r.elem[i] = i
	}
	r.has[0] = true
	ok, err := r.search()
	if !ok {
		return nil, err
	}
	reg := make([]perm.Perm, n)
	for w := range reg {
		reg[w] = r.elem[w*n : (w+1)*n : (w+1)*n]
	}
	if !r.closed(reg) {
		return nil, errors.New("group: internal error: regular subgroup not closed under composition")
	}
	return reg, nil
}

// candidate returns the i-th candidate for R[v], enumerating on demand;
// nil once they are exhausted or the enumeration failed (err set).
func (r *regularSearch) candidate(v, i int) (perm.Perm, error) {
	if r.iters[v] == nil {
		r.iters[v] = r.aut.From(v)
	}
	for len(r.cand[v]) <= i {
		c, err := r.iters[v].Next()
		if c == nil {
			return nil, err
		}
		r.cand[v] = append(r.cand[v], c)
	}
	return r.cand[v][i], nil
}

// search assigns the first unassigned slot to each of its candidates in
// turn, propagates the subgroup it generates with the slots already
// assigned, and recurses; it reports whether every slot got assigned.
func (r *regularSearch) search() (bool, error) {
	v := -1
	for u := 1; u < r.n; u++ {
		if !r.has[u] {
			v = u
			break
		}
	}
	if v == -1 {
		return true, nil // all assigned and closed: a regular subgroup
	}
	for i := 0; ; i++ {
		c, err := r.candidate(v, i)
		if c == nil {
			return false, err
		}
		if !r.aut.step(true) {
			return false, r.aut.err
		}
		if err := r.aut.ctx.Err(); err != nil {
			return false, err
		}
		mark := len(r.trail)
		if r.propagate(c) {
			r.gens = append(r.gens, c)
			if ok, err := r.search(); ok || err != nil {
				return ok, err
			}
			r.gens = r.gens[:len(r.gens)-1]
		}
		for _, w := range r.trail[mark:] {
			r.has[w] = false
		}
		r.trail = r.trail[:mark]
	}
}

// propagate extends the assigned subgroup K to ⟨K, c⟩. K is closed under
// right multiplication by its generators, so ⟨K, c⟩ is reached by
// multiplying every element of K by c and every new element by every
// generator. It reports false when two elements of ⟨K, c⟩ map 0 to the same
// vertex or a non-identity element fixes a point: no regular subgroup
// contains ⟨K, c⟩ then. The slots it assigned stay on the trail for the
// caller to undo.
func (r *regularSearch) propagate(c perm.Perm) bool {
	start := len(r.trail)
	copy(r.tmp, c)
	if !r.place() {
		return false
	}
	for _, w := range r.trail[:start] {
		if !r.product(w, c) {
			return false
		}
	}
	for j := start; j < len(r.trail); j++ {
		w := r.trail[j]
		for _, s := range r.gens {
			if !r.product(w, s) {
				return false
			}
		}
		if !r.product(w, c) {
			return false
		}
	}
	return true
}

// product places slot w's element followed by s.
func (r *regularSearch) product(w int, s perm.Perm) bool {
	n := r.n
	for i, x := range r.elem[w*n : (w+1)*n] {
		r.tmp[i] = s[x]
	}
	return r.place()
}

// place puts the element in r.tmp into its slot: it must equal the slot's
// element if one is assigned, and otherwise be fixed-point-free.
func (r *regularSearch) place() bool {
	n, y := r.n, r.tmp
	slot := r.elem[y[0]*n : (y[0]+1)*n]
	if r.has[y[0]] {
		for i, x := range y {
			if slot[i] != x {
				return false
			}
		}
		return true
	}
	for i, x := range y {
		if x == i {
			return false
		}
	}
	copy(slot, y)
	r.has[y[0]] = true
	r.trail = append(r.trail, y[0])
	return true
}

// closed checks that reg, indexed by image of 0, is a group: the slots
// reachable from the identity by right multiplication with the chosen
// generators must each hold exactly the product reached, and cover all n
// slots. Then reg is the closure of the generators, closed under
// composition. It uses trail as scratch and does not allocate.
func (r *regularSearch) closed(reg []perm.Perm) bool {
	n := r.n
	for i := range r.has {
		r.has[i] = false
	}
	r.has[0] = true
	r.trail = append(r.trail[:0], 0)
	for j := 0; j < len(r.trail); j++ {
		a := reg[r.trail[j]]
		for _, s := range r.gens {
			w := s[a[0]]
			b := reg[w]
			for i, x := range a {
				if s[x] != b[i] {
					return false
				}
			}
			if !r.has[w] {
				r.has[w] = true
				r.trail = append(r.trail, w)
			}
		}
	}
	return len(r.trail) == n
}

// abstractFromRegular reconstructs the abstract group from a regular
// subgroup indexed by image of vertex 0: element v corresponds to the
// permutation reg[v], with vertex 0 as the identity.
func abstractFromRegular(reg []perm.Perm) (*Group, error) {
	n := len(reg)
	// mul[u][v]: the element reg[u]∘reg[v] (apply reg[v] first) maps 0 to
	// reg[u](reg[v](0)) = reg[u][v]; since the subgroup is regular that
	// element is reg of that image.
	mul := make([][]int, n)
	for u := range mul {
		mul[u] = append([]int(nil), reg[u]...)
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
	}
	return FromTable("Recognized", mul, names)
}

// RecognizedCayley wraps a successful recognition as a Cayley structure on
// the original graph: vertex v is element v of the group abstractFromRegular
// builds from Regular, and port p of v, leading to w, carries the generator
// v⁻¹·w.
func (r *Recognition) RecognizedCayley(g *graph.Graph) (*Cayley, error) {
	if !r.IsCayley {
		return nil, errors.New("group: not a Cayley graph")
	}
	grp, err := abstractFromRegular(r.Regular)
	if err != nil {
		return nil, fmt.Errorf("group: internal reconstruction error: %w", err)
	}
	n := g.N()
	portGen := make([][]int, n)
	for v := 0; v < n; v++ {
		portGen[v] = make([]int, g.Deg(v))
		for p, h := range g.Ports(v) {
			portGen[v][p] = grp.Mul(grp.Inv(v), h.To)
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
	return &Cayley{Group: grp, Gens: gens, G: g, PortGen: portGen}, nil
}
