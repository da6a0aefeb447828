package group

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/perm"
)

// Cayley is a Cayley graph Cay(Γ, S) together with the bookkeeping the
// Section 4 protocol needs: the underlying anonymous graph, the generator
// attached to every port (the natural edge-labeling ℓ_x({x,y}) = x⁻¹y of
// Theorem 4.1's proof), and the translation action.
//
// Vertices of the graph are the group elements; vertex v corresponds to
// element v, and the edge set is {x, xs} for x ∈ Γ, s ∈ S.
type Cayley struct {
	Group *Group
	// Gens is the generating set S (element indices), closed under
	// inversion, not containing the identity, sorted ascending.
	Gens []int
	// G is the underlying undirected graph.
	G *graph.Graph
	// PortGen[v][p] is the generator s such that port p of vertex v leads
	// to vertex v*s.
	PortGen [][]int
}

// NewCayley builds Cay(Γ, S). S must not contain the identity, must be
// closed under inversion (S = S⁻¹), and must generate Γ (so the graph is
// connected, as the paper assumes).
func NewCayley(g *Group, gens []int) (*Cayley, error) {
	n := g.Order()
	inS := make([]bool, n)
	var S []int
	for _, s := range gens {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("group: generator %d out of range", s)
		}
		if s == g.Identity() {
			return nil, errors.New("group: identity cannot be a generator")
		}
		if !inS[s] {
			inS[s] = true
			S = append(S, s)
		}
	}
	for _, s := range S {
		if !inS[g.Inv(s)] {
			return nil, fmt.Errorf("group: generating set not symmetric (misses inverse of %s)", g.ElemName(s))
		}
	}
	if !g.Generates(S) {
		return nil, errors.New("group: set does not generate the group (graph would be disconnected)")
	}
	sortInts(S)

	b := graph.NewBuilder(n)
	portGen := make([][]int, n)
	// Edges are added generator-pair by generator-pair so ports appear in a
	// deterministic order; record tracks the generator of each appended port.
	record := func(v, s int) { portGen[v] = append(portGen[v], s) }
	for _, s := range S {
		si := g.Inv(s)
		if si < s {
			continue // handled when si was processed
		}
		if si == s {
			// Involution: one edge {x, xs} per unordered pair.
			for x := 0; x < n; x++ {
				y := g.Mul(x, s)
				if x < y {
					b.AddEdge(x, y)
					record(x, s)
					record(y, s)
				}
			}
			continue
		}
		// Non-involution: edge {x, xs} added once per x; the port at x is
		// labeled s and the port at xs is labeled s⁻¹.
		for x := 0; x < n; x++ {
			y := g.Mul(x, s)
			b.AddEdge(x, y)
			record(x, s)
			record(y, si)
		}
	}
	return &Cayley{Group: g, Gens: S, G: b.Graph(), PortGen: portGen}, nil
}

// Degree returns |S|, the degree of every vertex.
func (c *Cayley) Degree() int { return len(c.Gens) }

// Translation returns the translation φ_γ : a ↦ γa as a vertex permutation.
func (c *Cayley) Translation(gamma int) perm.Perm {
	n := c.Group.Order()
	p := make(perm.Perm, n)
	for a := 0; a < n; a++ {
		p[a] = c.Group.Mul(gamma, a)
	}
	return p
}

// TranslationClasses returns the translation-equivalence classes of the
// bicolored graph (G, p) where black[v] reports whether v is a home-base:
// the orbits, on vertices, of the subgroup of translations that preserve
// the black set. Because translations act freely, every class has size
// |H| where H is that subgroup, so gcd over class sizes equals |H|; the
// second return value is |H|.
func (c *Cayley) TranslationClasses(black []bool) ([][]int, int) {
	weight := make([]int, len(black))
	for v, b := range black {
		if b {
			weight[v] = 1
		}
	}
	return c.TranslationClassesWeighted(weight)
}

// TranslationClassesWeighted generalizes TranslationClasses to the
// shared-home extension: weight[v] is the number of agents based at v, and
// a translation preserves the placement iff it preserves every weight.
func (c *Cayley) TranslationClassesWeighted(weight []int) ([][]int, int) {
	n := c.Group.Order()
	if len(weight) != n {
		panic("group: weight slice length mismatch")
	}
	var preserving []perm.Perm
	for gamma := 0; gamma < n; gamma++ {
		t := c.Translation(gamma)
		ok := true
		for v := 0; v < n; v++ {
			if weight[t[v]] != weight[v] {
				ok = false
				break
			}
		}
		if ok {
			preserving = append(preserving, t)
		}
	}
	classes := perm.OrbitsOf(n, preserving)
	return classes, len(preserving)
}

// HypercubeCayley returns Cay(Z_2^d, {e_1,…,e_d}), isomorphic to
// graph.Hypercube(d).
func HypercubeCayley(d int) *Cayley {
	g := ElementaryAbelian2(d)
	gens := make([]int, d)
	for i := range gens {
		gens[i] = 1 << uint(i)
	}
	c, err := NewCayley(g, gens)
	if err != nil {
		panic("group: hypercube construction failed: " + err.Error())
	}
	return c
}

// CycleCayley returns Cay(Z_n, {+1, −1}).
func CycleCayley(n int) *Cayley {
	g := Cyclic(n)
	c, err := NewCayley(g, []int{1, n - 1})
	if err != nil {
		panic("group: cycle construction failed: " + err.Error())
	}
	return c
}

// TorusCayley returns Cay(Z_a × Z_b, {(±1,0), (0,±1)}).
func TorusCayley(a, b int) (*Cayley, error) {
	g := Direct(Cyclic(a), Cyclic(b))
	enc := func(x, y int) int { return x*b + y }
	gens := []int{enc(1, 0), enc(a-1, 0), enc(0, 1), enc(0, b-1)}
	return NewCayley(g, gens)
}

// CompleteCayley returns Cay(Z_n, Z_n \ {0}) ≅ K_n.
func CompleteCayley(n int) *Cayley {
	g := Cyclic(n)
	gens := make([]int, 0, n-1)
	for s := 1; s < n; s++ {
		gens = append(gens, s)
	}
	c, err := NewCayley(g, gens)
	if err != nil {
		panic("group: complete construction failed: " + err.Error())
	}
	return c
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
