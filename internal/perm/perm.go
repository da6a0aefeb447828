// Package perm implements permutations of {0,…,n−1}, the orbits of a set of
// permutations, and finite permutation groups listed from generators. The
// program uses the permutations and orbits but never lists a group; the
// explicit closure serves only tests, as the reference the automorphism
// searches of group and labeling are checked against.
package perm

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Perm is a permutation: p[i] is the image of i.
type Perm []int

// Identity returns the identity permutation on n points.
func Identity(n int) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// FromImages validates images as a permutation and returns it.
func FromImages(images []int) (Perm, error) {
	n := len(images)
	seen := make([]bool, n)
	for _, v := range images {
		if v < 0 || v >= n || seen[v] {
			return nil, errors.New("perm: not a permutation")
		}
		seen[v] = true
	}
	return Perm(append([]int(nil), images...)), nil
}

// Compose returns the permutation q∘p: first apply p, then q.
func (p Perm) Compose(q Perm) Perm {
	if len(p) != len(q) {
		panic("perm: size mismatch")
	}
	r := make(Perm, len(p))
	for i := range p {
		r[i] = q[p[i]]
	}
	return r
}

// Inverse returns p⁻¹.
func (p Perm) Inverse() Perm {
	r := make(Perm, len(p))
	for i, v := range p {
		r[v] = i
	}
	return r
}

// IsIdentity reports whether p fixes every point.
func (p Perm) IsIdentity() bool {
	for i, v := range p {
		if i != v {
			return false
		}
	}
	return true
}

// Equal reports whether p and q are the same permutation.
func (p Perm) Equal(q Perm) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// IsFixedPointFree reports whether p moves every point (p ≠ id everywhere).
func (p Perm) IsFixedPointFree() bool {
	for i, v := range p {
		if i == v {
			return false
		}
	}
	return true
}

// Order returns the multiplicative order of p.
func (p Perm) Order() int {
	// lcm of cycle lengths.
	n := len(p)
	seen := make([]bool, n)
	ord := 1
	for i := 0; i < n; i++ {
		if seen[i] {
			continue
		}
		l := 0
		for j := i; !seen[j]; j = p[j] {
			seen[j] = true
			l++
		}
		ord = lcm(ord, l)
	}
	return ord
}

// Cycles returns the cycle decomposition of p, each cycle starting at its
// smallest element, cycles sorted by first element; fixed points included
// as singleton cycles.
func (p Perm) Cycles() [][]int {
	n := len(p)
	seen := make([]bool, n)
	var out [][]int
	for i := 0; i < n; i++ {
		if seen[i] {
			continue
		}
		var c []int
		for j := i; !seen[j]; j = p[j] {
			seen[j] = true
			c = append(c, j)
		}
		out = append(out, c)
	}
	return out
}

// String renders p in cycle notation, e.g. "(0 1 2)(3 4)".
func (p Perm) String() string {
	var b strings.Builder
	wrote := false
	for _, c := range p.Cycles() {
		if len(c) == 1 {
			continue
		}
		wrote = true
		b.WriteByte('(')
		for i, v := range c {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", v)
		}
		b.WriteByte(')')
	}
	if !wrote {
		return "id"
	}
	return b.String()
}

// Key returns a compact comparable key for map storage: the images as
// concatenated unsigned varints, a prefix-free code, so distinct
// permutations get distinct keys.
func (p Perm) Key() string {
	var b strings.Builder
	b.Grow(len(p))
	for _, v := range p {
		for ; v >= 0x80; v >>= 7 {
			b.WriteByte(byte(v) | 0x80)
		}
		b.WriteByte(byte(v))
	}
	return b.String()
}

// Less defines a deterministic total order (lexicographic on images).
func (p Perm) Less(q Perm) bool {
	for i := range p {
		if p[i] != q[i] {
			return p[i] < q[i]
		}
	}
	return len(p) < len(q)
}

// Group is a finite permutation group stored as an explicit element list.
// Suitable for the small degrees used in this reproduction (the closure is
// capped to guard against accidentally huge groups).
type Group struct {
	n        int
	elements []Perm
	index    map[string]int
}

// DefaultClosureCap bounds the number of elements Closure will enumerate.
const DefaultClosureCap = 1 << 20

// ErrTooLarge is returned when a closure exceeds its cap.
var ErrTooLarge = errors.New("perm: group closure exceeds cap")

// Closure computes the group generated by gens on n points, enumerating at
// most cap elements (cap <= 0 selects DefaultClosureCap).
func Closure(n int, gens []Perm, cap int) (*Group, error) {
	if cap <= 0 {
		cap = DefaultClosureCap
	}
	g := &Group{n: n, index: make(map[string]int)}
	add := func(p Perm) bool {
		k := p.Key()
		if _, ok := g.index[k]; ok {
			return false
		}
		g.index[k] = len(g.elements)
		g.elements = append(g.elements, p)
		return true
	}
	add(Identity(n))
	frontier := []Perm{Identity(n)}
	for len(frontier) > 0 {
		var next []Perm
		for _, p := range frontier {
			for _, s := range gens {
				if len(s) != n {
					return nil, errors.New("perm: generator degree mismatch")
				}
				q := p.Compose(s)
				if add(q) {
					if len(g.elements) > cap {
						return nil, ErrTooLarge
					}
					next = append(next, q)
				}
			}
		}
		frontier = next
	}
	sort.Slice(g.elements, func(i, j int) bool { return g.elements[i].Less(g.elements[j]) })
	for i, p := range g.elements {
		g.index[p.Key()] = i
	}
	return g, nil
}

// Order returns |G|.
func (g *Group) Order() int { return len(g.elements) }

// Elements returns the sorted element list (do not modify).
func (g *Group) Elements() []Perm { return g.elements }

// Contains reports whether p is an element of g.
func (g *Group) Contains(p Perm) bool {
	if len(p) != g.n {
		return false
	}
	_, ok := g.index[p.Key()]
	return ok
}

// OrbitsOf returns the orbits of the set of permutations (not necessarily a
// group; orbits are of the generated group) on {0,…,n−1}, each sorted,
// ordered by smallest element. It runs a union-find over the images and
// then one pass over the points, so it uses no map and no sort.
func OrbitsOf(n int, perms []Perm) [][]int {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, p := range perms {
		for i, v := range p {
			if a, b := find(i), find(v); a != b {
				parent[a] = b
			}
		}
	}
	// size[r] counts root r's points; orbit[r] is its orbit's index + 1,
	// assigned in order of smallest element.
	size, orbit := make([]int, n), make([]int, n)
	count := 0
	for i := range parent {
		r := find(i)
		if size[r] == 0 {
			count++
			orbit[r] = count
		}
		size[r]++
	}
	out, flat := make([][]int, count), make([]int, n)
	for i := range parent {
		r := find(i)
		o := orbit[r] - 1
		if out[o] == nil {
			out[o], flat = flat[:0:size[r]], flat[size[r]:]
		}
		out[o] = append(out[o], i)
	}
	return out
}

// IsTransitive reports whether g has a single orbit.
func (g *Group) IsTransitive() bool {
	return g.n == 0 || len(OrbitsOf(g.n, g.elements)) == 1
}

// IsRegular reports whether g acts regularly: transitively with trivial
// point stabilizers (equivalently, transitive and |G| = n).
func (g *Group) IsRegular() bool {
	if g.Order() != g.n {
		return false
	}
	return g.IsTransitive()
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	if a < 0 {
		return -a
	}
	return a
}

func lcm(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	return a / gcd(a, b) * b
}
