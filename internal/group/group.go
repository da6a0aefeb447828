// Package group implements finite groups and Cayley graphs: construction of
// Cay(Γ, S) with its natural generator edge-labeling (Definition 1.2 and the
// labeling used in the proof of Theorem 4.1), recognition of Cayley graphs
// via Sabidussi's criterion (a graph is Cayley iff its automorphism group
// contains a regular subgroup), and the translation machinery that the
// effectual protocol of Section 4 relies on.
package group

import (
	"errors"
	"fmt"
)

// Group is a finite group given by its multiplication table.
// Elements are integers 0..n-1; element 0 is always the identity.
type Group struct {
	name string
	mul  [][]int
	inv  []int
	elem []string // display names
}

// FromTable builds a group from a multiplication table (mul[a][b] = a*b).
// It validates closure, identity at index 0, inverses and associativity.
// names is optional (nil for default numeric names).
func FromTable(name string, mul [][]int, names []string) (*Group, error) {
	n := len(mul)
	for a := 0; a < n; a++ {
		if len(mul[a]) != n {
			return nil, errors.New("group: table not square")
		}
		for b := 0; b < n; b++ {
			if mul[a][b] < 0 || mul[a][b] >= n {
				return nil, errors.New("group: table entry out of range")
			}
		}
	}
	for a := 0; a < n; a++ {
		if mul[0][a] != a || mul[a][0] != a {
			return nil, errors.New("group: element 0 is not the identity")
		}
	}
	inv := make([]int, n)
	for a := 0; a < n; a++ {
		found := false
		for b := 0; b < n; b++ {
			if mul[a][b] == 0 && mul[b][a] == 0 {
				inv[a] = b
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("group: element %d has no inverse", a)
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			for c := 0; c < n; c++ {
				if mul[mul[a][b]][c] != mul[a][mul[b][c]] {
					return nil, fmt.Errorf("group: associativity fails at (%d,%d,%d)", a, b, c)
				}
			}
		}
	}
	g := &Group{name: name, mul: mul, inv: inv, elem: names}
	if g.elem == nil {
		g.elem = make([]string, n)
		for i := range g.elem {
			g.elem[i] = fmt.Sprintf("g%d", i)
		}
	}
	return g, nil
}

// mustFromTable panics on invalid tables; for the package's own constructors.
func mustFromTable(name string, mul [][]int, names []string) *Group {
	g, err := FromTable(name, mul, names)
	if err != nil {
		panic("group: internal constructor built an invalid table: " + err.Error())
	}
	return g
}

// Order returns |Γ|.
func (g *Group) Order() int { return len(g.mul) }

// Name returns the group's display name, e.g. "Z6".
func (g *Group) Name() string { return g.name }

// Mul returns a*b.
func (g *Group) Mul(a, b int) int { return g.mul[a][b] }

// Inv returns a⁻¹.
func (g *Group) Inv(a int) int { return g.inv[a] }

// Identity returns the identity element (always 0).
func (g *Group) Identity() int { return 0 }

// ElemName returns the display name of element a.
func (g *Group) ElemName(a int) string { return g.elem[a] }

// Generates reports whether the set gens generates the whole group.
func (g *Group) Generates(gens []int) bool {
	reached := map[int]bool{0: true}
	frontier := []int{0}
	for len(frontier) > 0 {
		var next []int
		for _, x := range frontier {
			for _, s := range gens {
				y := g.mul[x][s]
				if !reached[y] {
					reached[y] = true
					next = append(next, y)
				}
			}
		}
		frontier = next
	}
	return len(reached) == g.Order()
}

// Cyclic returns Z_n with addition modulo n.
func Cyclic(n int) *Group {
	if n < 1 {
		panic("group: Cyclic needs n >= 1")
	}
	mul := make([][]int, n)
	names := make([]string, n)
	for a := 0; a < n; a++ {
		mul[a] = make([]int, n)
		for b := 0; b < n; b++ {
			mul[a][b] = (a + b) % n
		}
		names[a] = fmt.Sprintf("%d", a)
	}
	return mustFromTable(fmt.Sprintf("Z%d", n), mul, names)
}

// Direct returns the direct product a × b.
func Direct(a, b *Group) *Group {
	na, nb := a.Order(), b.Order()
	n := na * nb
	// Element (x, y) is encoded x*nb + y, so identity (0,0) stays 0.
	mul := make([][]int, n)
	names := make([]string, n)
	for x1 := 0; x1 < na; x1++ {
		for y1 := 0; y1 < nb; y1++ {
			i := x1*nb + y1
			mul[i] = make([]int, n)
			names[i] = fmt.Sprintf("(%s,%s)", a.ElemName(x1), b.ElemName(y1))
			for x2 := 0; x2 < na; x2++ {
				for y2 := 0; y2 < nb; y2++ {
					j := x2*nb + y2
					mul[i][j] = a.Mul(x1, x2)*nb + b.Mul(y1, y2)
				}
			}
		}
	}
	return mustFromTable(a.Name()+"x"+b.Name(), mul, names)
}

// ElementaryAbelian2 returns Z_2^d, the group of the d-dimensional
// hypercube, with bitwise-xor multiplication.
func ElementaryAbelian2(d int) *Group {
	n := 1 << uint(d)
	mul := make([][]int, n)
	names := make([]string, n)
	for a := 0; a < n; a++ {
		mul[a] = make([]int, n)
		names[a] = fmt.Sprintf("%0*b", d, a)
		for b := 0; b < n; b++ {
			mul[a][b] = a ^ b
		}
	}
	return mustFromTable(fmt.Sprintf("Z2^%d", d), mul, names)
}

// Dihedral returns D_n of order 2n: rotations r^k (encoded k) and
// reflections s·r^k (encoded n+k), with s·r·s = r⁻¹.
func Dihedral(n int) *Group {
	if n < 1 {
		panic("group: Dihedral needs n >= 1")
	}
	size := 2 * n
	mul := make([][]int, size)
	names := make([]string, size)
	enc := func(flip, rot int) int {
		if flip == 0 {
			return rot
		}
		return n + rot
	}
	for f1 := 0; f1 < 2; f1++ {
		for r1 := 0; r1 < n; r1++ {
			i := enc(f1, r1)
			mul[i] = make([]int, size)
			if f1 == 0 {
				names[i] = fmt.Sprintf("r%d", r1)
			} else {
				names[i] = fmt.Sprintf("sr%d", r1)
			}
			for f2 := 0; f2 < 2; f2++ {
				for r2 := 0; r2 < n; r2++ {
					j := enc(f2, r2)
					// (f1, r1) * (f2, r2): with s r s = r^{-1}:
					// r^{r1} * s^{f2} r^{r2} = s^{f2} r^{±r1+r2}.
					var rot int
					if f2 == 0 {
						rot = (r1 + r2) % n
					} else {
						rot = ((r2-r1)%n + n) % n
					}
					mul[i][j] = enc(f1^f2, rot)
				}
			}
		}
	}
	return mustFromTable(fmt.Sprintf("D%d", n), mul, names)
}

// Symmetric returns the symmetric group S_k (order k!), elements being
// permutations of {0..k-1} in lexicographic rank order (identity first).
func Symmetric(k int) *Group {
	if k < 1 || k > 6 {
		panic("group: Symmetric supports 1 <= k <= 6")
	}
	// Enumerate permutations in lexicographic order.
	var perms [][]int
	cur := make([]int, k)
	for i := range cur {
		cur[i] = i
	}
	used := make([]bool, k)
	var gen func(pos int, acc []int)
	gen = func(pos int, acc []int) {
		if pos == k {
			perms = append(perms, append([]int(nil), acc...))
			return
		}
		for v := 0; v < k; v++ {
			if !used[v] {
				used[v] = true
				gen(pos+1, append(acc, v))
				used[v] = false
			}
		}
	}
	gen(0, nil)
	index := make(map[string]int, len(perms))
	key := func(p []int) string {
		b := make([]byte, len(p))
		for i, v := range p {
			b[i] = byte(v)
		}
		return string(b)
	}
	for i, p := range perms {
		index[key(p)] = i
	}
	n := len(perms)
	mul := make([][]int, n)
	names := make([]string, n)
	for i, p := range perms {
		mul[i] = make([]int, n)
		names[i] = fmt.Sprintf("%v", p)
		for j, q := range perms {
			// Product p*q acts as first q then p (function composition),
			// matching the convention (p*q)(x) = p(q(x)).
			r := make([]int, k)
			for x := 0; x < k; x++ {
				r[x] = p[q[x]]
			}
			mul[i][j] = index[key(r)]
		}
	}
	return mustFromTable(fmt.Sprintf("S%d", k), mul, names)
}
