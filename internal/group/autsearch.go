package group

import (
	"context"
	"slices"

	"repro/internal/graph"
	"repro/internal/perm"
)

// searchBudget bounds the dead ends one oracle call may meet: every
// placement the automorphism enumeration drops and every vertex whose
// candidates run out counts one, as does every candidate the regular-
// subgroup search tries. A placement that leads on costs nothing, so an
// enumeration that walks straight to an automorphism is free whatever n,
// and a later automorphism of the same enumeration costs at least one. A
// call that runs out reports ErrUndecided. Only tests lower it.
var searchBudget = 1 << 21

// AutSearch enumerates automorphisms of a vertex-colored undirected
// multigraph without listing its automorphism group: a backtracking search
// assigns images to vertices 0, 1, …, n−1 in order, trying candidates in
// increasing order, so each From enumeration yields its automorphisms in
// lexicographic order of their image arrays. A candidate y for vertex x
// must be unused, carry x's color and loop count, have x's edge
// multiplicity to every vertex already placed, and have x's profile: its
// BFS distances and multiplicities to the first sep vertices (see
// separating), compared through a hash.
//
// Two devices keep the search short. Candidates for x come from the
// neighbours of the image of x's first earlier neighbour, when it has one,
// and otherwise from the vertices at x's distance from vertex 0's image.
// And profiles are hashed: once vertices 0, …, x−1 are placed, hs[z] sums
// key[u]·rel[z][u] over u < min(x, sep), and ht[w] sums key[u]·rel[w][p(u)]
// over the same u, for odd pseudo-random keys. An automorphism extending
// the placement maps every z to a w with ht[w] = hs[z], so y must have
// ht[y] = hs[x], and a placement whose unplaced hs values and unused ht
// values differ as multisets extends to none. It is dropped at once
// instead of failing deep in its subtree; the multisets are compared by a
// sum of their spread values. Once vertices 0, …, sep−1 are placed, the
// unplaced hs values are pairwise distinct, so an unplaced, unused z with
// ht[z] = hs[z] is a fixed point of every extension, and a fixed-point-free
// enumeration drops the placement there too. The hs side depends on x
// alone, so NewAutSearch computes it once; each placement below sep
// updates ht. Colliding hashes only weaken these tests, since a hash is a
// function of the profile alone, and every yielded map passes the exact
// edge tests, so it is an automorphism.
//
// One AutSearch serves every From enumeration of one oracle call: they
// share the graph's tables, one budget of dead ends (searchBudget) and one
// context, which is polled every 256 nodes. Not safe for concurrent use.
type AutSearch struct {
	n     int
	color []int
	// rel[u*n+w] packs the BFS distance from u to w (high 32 bits, -1 when
	// w is unreachable) with the number of u–w edges (low 32 bits; a loop
	// counts 2). An automorphism preserves both, and the graph is
	// undirected, so comparing rows in one direction covers both.
	rel []int64
	// nbrs[u] lists u's neighbours other than u, ascending; anchor[x] is
	// x's smallest neighbour below x (-1 if none), and below[x] the number
	// of edges from x to vertices below it.
	nbrs   [][]int
	anchor []int
	below  []int
	// sep is the smallest d such that the distances and multiplicities to
	// vertices 0, …, d−1 tell the vertices d, …, n−1 apart. Past it every
	// vertex has at most one candidate with a matching profile, so the
	// profile hashes stop changing there. key[u] weighs vertex u's column
	// in the profile hashes, u < sep. prof[x] is hs[x] once 0, …, x−1 are
	// placed; rest[x], x < sep, is the spread sum of hs[z] over z > x once
	// 0, …, x are placed.
	sep        int
	key        []uint64
	prof, rest []uint64
	// fpf restricts the enumeration to fixed-point-free automorphisms.
	fpf bool
	// left is what remains of the budget; nodes counts every step, dead
	// or not, for polling ctx.
	left, nodes int
	ctx         context.Context
	err         error
}

// NewAutSearch prepares the enumeration of the color-preserving
// automorphisms of (g, colors); colors may be nil. With fpf set it yields
// only the fixed-point-free ones, which no vertex maps to itself. It costs
// one BFS per vertex and an n×n table.
func NewAutSearch(ctx context.Context, g *graph.Graph, colors []int, fpf bool) *AutSearch {
	n := g.N()
	s := &AutSearch{n: n, color: colors, rel: make([]int64, n*n), fpf: fpf, left: searchBudget, ctx: ctx,
		nbrs: make([][]int, n), anchor: make([]int, n), below: make([]int, n)}
	flat := make([]int, 0, 2*g.M())
	if s.color == nil {
		s.color = make([]int, n)
	}
	queue := make([]int, 0, n)
	for u := 0; u < n; u++ {
		row := s.rel[u*n : (u+1)*n]
		for w := range row {
			row[w] = -1 << 32
		}
		row[u] = 0
		queue = append(queue[:0], u)
		for i := 0; i < len(queue); i++ {
			x := queue[i]
			for _, h := range g.Ports(x) {
				if row[h.To] < 0 {
					row[h.To] = (row[x]>>32 + 1) << 32
					queue = append(queue, h.To)
				}
			}
		}
		for _, h := range g.Ports(u) {
			row[h.To]++
		}
		s.anchor[u] = -1
		start := len(flat)
		for w, r := range row {
			if m := r & (1<<32 - 1); w != u && m > 0 {
				flat = append(flat, w)
				if w < u {
					s.below[u] += int(m)
					if s.anchor[u] < 0 {
						s.anchor[u] = w
					}
				}
			}
		}
		s.nbrs[u] = flat[start:len(flat):len(flat)]
	}
	s.separating()
	return s
}

// separating sets sep, the smallest d whose leading vertices 0, …, d−1
// give the vertices d, …, n−1 pairwise distinct profile hashes, and fills
// key, prof and rest.
func (s *AutSearch) separating() {
	n := s.n
	hs := make([]uint64, n)
	s.prof = make([]uint64, n)
	s.sep = n
	sorted := make([]uint64, 0, n)
	for d := 0; d < n; d++ {
		s.prof[d] = hs[d]
		sorted = append(sorted[:0], hs[d:]...)
		slices.Sort(sorted)
		distinct := true
		for i := 1; i < len(sorted); i++ {
			if sorted[i] == sorted[i-1] {
				distinct = false
				break
			}
		}
		if distinct {
			copy(s.prof[d:], hs[d:])
			s.sep = d
			return
		}
		k := keyOf(d)
		s.key = append(s.key, k)
		var rest uint64
		for z, r := range s.rel[d*n : (d+1)*n] {
			hs[z] += k * uint64(r)
			if z > d {
				rest += spread(hs[z])
			}
		}
		s.rest = append(s.rest, rest)
	}
}

// step counts one node, charges a dead end to the budget, and polls the
// context every 256 nodes; it reports false, with s.err set, once the
// budget runs out or the context fires.
func (s *AutSearch) step(deadEnd bool) bool {
	if s.err != nil {
		return false
	}
	if deadEnd {
		if s.left <= 0 {
			s.err = ErrUndecided
			return false
		}
		s.left--
	}
	s.nodes++
	if s.nodes&255 == 0 {
		if err := s.ctx.Err(); err != nil {
			s.err = err
			return false
		}
	}
	return true
}

// AutIter is one From enumeration in progress.
type AutIter struct {
	s *AutSearch
	// p[x] is the image of vertex x for x below the search depth; used
	// marks the images taken.
	p    []int
	used []bool
	// next[x] is the smallest image not yet tried for x at this depth.
	next []int
	// ht holds the image-side profile hashes; deg[w] counts the edges from
	// w to the images taken.
	ht  []uint64
	deg []int
	// shell lists the vertices by distance from v, then by index: those
	// at distance d (-1 when unreachable) are shell[at[d+1]:at[d+2]].
	shell, at []int
	// depth is the number of vertices placed; depth == n after a yielded
	// automorphism, and -1 once the enumeration is exhausted.
	depth int
	// v is the image of vertex 0.
	v int
}

// From starts the enumeration of the automorphisms that map vertex 0 to v.
func (s *AutSearch) From(v int) *AutIter {
	n := s.n
	ints := make([]int, 5*n+2)
	it := &AutIter{s: s, p: ints[:n], next: ints[n : 2*n], deg: ints[2*n : 3*n],
		shell: ints[3*n : 4*n], at: ints[4*n:], used: make([]bool, n),
		ht: make([]uint64, n), v: v}
	if n == 0 || v < 0 || v >= n {
		it.depth = -1
		return it
	}
	it.next[0] = v
	row := s.rel[v*n : (v+1)*n]
	for _, r := range row {
		it.at[r>>32+2]++
	}
	for d := 1; d < len(it.at); d++ {
		it.at[d] += it.at[d-1]
	}
	for w, r := range row {
		it.shell[it.at[r>>32+1]] = w
		it.at[r>>32+1]++
	}
	copy(it.at[1:], it.at)
	it.at[0] = 0
	return it
}

// Next returns the next automorphism, a fresh Perm, or nil once the
// enumeration is exhausted. It returns ErrUndecided when the budget runs
// out and ctx.Err() when the context fires; after an error every later
// Next of the same AutSearch returns it again.
func (it *AutIter) Next() (perm.Perm, error) {
	s := it.s
	if s.err != nil {
		return nil, s.err
	}
	x := it.depth
	if x < 0 {
		return nil, nil
	}
	if x == s.n {
		x--
		it.unplace(x)
	}
	for x >= 0 {
		y := it.candidate(x)
		placed := y >= 0 && it.place(x, y)
		if !s.step(!placed) {
			return nil, s.err
		}
		switch {
		case placed:
			x++
			if x == s.n {
				it.depth = x
				return append(perm.Perm(nil), it.p...), nil
			}
			it.next[x] = 0
		case y >= 0:
			it.unplace(x)
		default:
			x--
			if x >= 0 {
				it.unplace(x)
			}
		}
	}
	it.depth = -1
	return nil, nil
}

// candidate returns the smallest image y >= next[x] that vertex x can take
// given the images of 0, …, x−1, and advances next[x] past it; -1 when none
// is left. Vertex 0's only candidate is v.
func (it *AutIter) candidate(x int) int {
	s := it.s
	switch a := s.anchor[x]; {
	case x == 0:
		if y := it.next[0]; y == it.v && it.fits(0, y) {
			it.next[0] = y + 1
			return y
		}
	case a >= 0:
		for _, y := range s.nbrs[it.p[a]] {
			if y >= it.next[x] && it.fits(x, y) {
				it.next[x] = y + 1
				return y
			}
		}
	default:
		d := s.rel[x*s.n] >> 32
		for _, y := range it.shell[it.at[d+1]:it.at[d+2]] {
			if y >= it.next[x] && it.fits(x, y) {
				it.next[x] = y + 1
				return y
			}
		}
	}
	it.next[x] = s.n
	return -1
}

// fits reports whether x may map to y: the cheap filters first, the
// profile hash among them, then the exact loop count and multiplicities to
// x's placed neighbours. With deg[y] equal to below[x], y then has no
// other edge to an image taken.
func (it *AutIter) fits(x, y int) bool {
	s := it.s
	if it.used[y] || it.ht[y] != s.prof[x] || it.deg[y] != s.below[x] ||
		(s.fpf && y == x) || s.color[y] != s.color[x] {
		return false
	}
	n := s.n
	rx, ry := s.rel[x*n:(x+1)*n], s.rel[y*n:(y+1)*n]
	if rx[x] != ry[y] {
		return false
	}
	for _, u := range s.nbrs[x] {
		if u >= x {
			break
		}
		if rx[u] != ry[it.p[u]] {
			return false
		}
	}
	return true
}

// place maps x to y, updates deg and, below sep, the profile hashes, and
// reports whether the unplaced and unused vertices still have equal hash
// multisets and, in a fixed-point-free enumeration whose profiles have
// just become final (x = sep−1), no unplaced vertex must stay fixed.
func (it *AutIter) place(x, y int) bool {
	s := it.s
	n := s.n
	it.p[x], it.used[y] = y, true
	ry := s.rel[y*n : (y+1)*n]
	for _, w := range s.nbrs[y] {
		it.deg[w] += int(ry[w] & (1<<32 - 1))
	}
	if x >= s.sep {
		return true
	}
	k := s.key[x]
	var dst uint64
	for w := range it.ht {
		it.ht[w] += k * uint64(ry[w])
		if !it.used[w] {
			dst += spread(it.ht[w])
		}
	}
	if dst != s.rest[x] {
		return false
	}
	if s.fpf && x == s.sep-1 {
		for z := x + 1; z < n; z++ {
			if !it.used[z] && it.ht[z] == s.prof[z] {
				return false
			}
		}
	}
	return true
}

// unplace undoes place(x, p[x]).
func (it *AutIter) unplace(x int) {
	s := it.s
	n, y := s.n, it.p[x]
	it.used[y] = false
	ry := s.rel[y*n : (y+1)*n]
	for _, w := range s.nbrs[y] {
		it.deg[w] -= int(ry[w] & (1<<32 - 1))
	}
	if x >= s.sep {
		return
	}
	k := s.key[x]
	for w := range it.ht {
		it.ht[w] -= k * uint64(ry[w])
	}
}

// spread is the nonlinear map the multiset sums go through: a plain sum of
// linear profile hashes would only compare the profiles' totals.
func spread(h uint64) uint64 {
	h ^= h >> 31
	return (h * 0xd6e8feb86659fd93) ^ h>>29
}

// keyOf is vertex d's odd random-looking weight in the profile hashes
// (splitmix64 of d).
func keyOf(d int) uint64 {
	h := uint64(d+1) * 0x9e3779b97f4a7c15
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return (h ^ h>>31) | 1
}
