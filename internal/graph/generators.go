package graph

import (
	"fmt"

	"repro/internal/lazyrand"
)

// Path returns the path graph P_n on n nodes (n-1 edges).
func Path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Graph()
}

// Cycle returns the cycle C_n, n >= 3. It is the Cayley graph
// Cay(Z_n, {+1, -1}).
func Cycle(n int) *Graph {
	if n < 3 {
		panic("graph: Cycle needs n >= 3")
	}
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.Graph()
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	return b.Graph()
}

// CompleteBipartite returns K_{a,b}; the first a nodes form one side.
func CompleteBipartite(a, b int) *Graph {
	bd := NewBuilder(a + b)
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			bd.AddEdge(i, a+j)
		}
	}
	return bd.Graph()
}

// Star returns the star K_{1,k}: node 0 is the center.
func Star(k int) *Graph {
	b := NewBuilder(k + 1)
	for i := 1; i <= k; i++ {
		b.AddEdge(0, i)
	}
	return b.Graph()
}

// Hypercube returns the d-dimensional hypercube Q_d on 2^d nodes.
// Node x is adjacent to x XOR 2^i for each dimension i.
func Hypercube(d int) *Graph {
	if d < 0 || d > 20 {
		panic("graph: Hypercube dimension out of range")
	}
	n := 1 << uint(d)
	b := NewBuilder(n)
	for x := 0; x < n; x++ {
		for i := 0; i < d; i++ {
			y := x ^ (1 << uint(i))
			if x < y {
				b.AddEdge(x, y)
			}
		}
	}
	return b.Graph()
}

// Torus returns the a×b toroidal mesh C_a □ C_b (a, b >= 3).
// Node (i, j) is encoded as i*b + j.
func Torus(a, b int) *Graph {
	if a < 3 || b < 3 {
		panic("graph: Torus needs a, b >= 3")
	}
	bd := NewBuilder(a * b)
	id := func(i, j int) int { return i*b + j }
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			bd.AddEdge(id(i, j), id((i+1)%a, j))
			bd.AddEdge(id(i, j), id(i, (j+1)%b))
		}
	}
	return bd.Graph()
}

// Grid returns the a×b rectangular grid (no wraparound).
func Grid(a, b int) *Graph {
	bd := NewBuilder(a * b)
	id := func(i, j int) int { return i*b + j }
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			if i+1 < a {
				bd.AddEdge(id(i, j), id(i+1, j))
			}
			if j+1 < b {
				bd.AddEdge(id(i, j), id(i, j+1))
			}
		}
	}
	return bd.Graph()
}

// Circulant returns the circulant graph C_n(S): node i adjacent to i±s for
// every s in jumps. Jumps must satisfy 0 < s <= n/2; a jump of exactly n/2
// (n even) contributes a single perfect-matching edge. It is the Cayley
// graph Cay(Z_n, S ∪ -S).
func Circulant(n int, jumps []int) *Graph {
	b := NewBuilder(n)
	for _, s := range jumps {
		if s <= 0 || 2*s > n {
			panic(fmt.Sprintf("graph: circulant jump %d out of range for n=%d", s, n))
		}
		if 2*s == n {
			for i := 0; i < n/2; i++ {
				b.AddEdge(i, i+s)
			}
			continue
		}
		for i := 0; i < n; i++ {
			b.AddEdge(i, (i+s)%n)
		}
	}
	return b.Graph()
}

// Petersen returns the Petersen graph: outer 5-cycle 0..4, inner pentagram
// 5..9 (i adjacent to i+2 mod 5), spokes i — i+5. Vertex-transitive but not
// Cayley; the paper's Figure 5 counterexample lives here.
func Petersen() *Graph {
	b := NewBuilder(10)
	for i := 0; i < 5; i++ {
		b.AddEdge(i, (i+1)%5)     // outer cycle
		b.AddEdge(5+i, 5+(i+2)%5) // inner pentagram
		b.AddEdge(i, 5+i)         // spokes
	}
	return b.Graph()
}

// CCC returns the cube-connected-cycles network CCC(d) on d*2^d nodes, the
// Cayley graph of the wreath-like group Z_2^d ⋊ Z_d. Node (x, i) is encoded
// as x*d + i; cycle edges join (x,i)-(x,i+1 mod d) and cube edges join
// (x,i)-(x XOR 2^i, i). Requires d >= 3 so cycle edges are simple.
func CCC(d int) *Graph {
	if d < 3 {
		panic("graph: CCC needs d >= 3")
	}
	n := d * (1 << uint(d))
	b := NewBuilder(n)
	id := func(x, i int) int { return x*d + i }
	for x := 0; x < 1<<uint(d); x++ {
		for i := 0; i < d; i++ {
			b.AddEdge(id(x, i), id(x, (i+1)%d))
			y := x ^ (1 << uint(i))
			if x < y {
				b.AddEdge(id(x, i), id(y, i))
			}
		}
	}
	return b.Graph()
}

// Prism returns the prism Y_n = C_n □ K_2 on 2n nodes (n >= 3): two n-cycles
// 0..n-1 and n..2n-1 joined by a perfect matching. Cayley graph of the
// dihedral group D_n (and of Z_2 × Z_n for suitable n).
func Prism(n int) *Graph {
	if n < 3 {
		panic("graph: Prism needs n >= 3")
	}
	b := NewBuilder(2 * n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
		b.AddEdge(n+i, n+(i+1)%n)
		b.AddEdge(i, n+i)
	}
	return b.Graph()
}

// Wheel returns the wheel W_n: a hub (node 0) joined to every node of an
// n-cycle (nodes 1..n). Highly asymmetric around the hub; election is easy.
func Wheel(n int) *Graph {
	if n < 3 {
		panic("graph: Wheel needs n >= 3")
	}
	b := NewBuilder(n + 1)
	for i := 1; i <= n; i++ {
		b.AddEdge(0, i)
		b.AddEdge(i, i%n+1)
	}
	return b.Graph()
}

// MoebiusKantor returns the Möbius–Kantor graph GP(8,3), a cubic Cayley
// graph on 16 nodes (outer cycle 0..7, inner nodes 8..15 with skip 3).
func MoebiusKantor() *Graph {
	b := NewBuilder(16)
	for i := 0; i < 8; i++ {
		b.AddEdge(i, (i+1)%8)
		b.AddEdge(8+i, 8+(i+3)%8)
		b.AddEdge(i, 8+i)
	}
	return b.Graph()
}

// RandomConnected returns a random connected simple graph on n nodes with
// extra additional random non-tree edges, using the given seed. The result
// is deterministic for a fixed (n, extra, seed).
func RandomConnected(n, extra int, seed int64) *Graph {
	rng := lazyrand.New(seed)
	b := NewBuilder(n)
	have := make(map[[2]int]bool)
	add := func(u, v int) bool {
		if u == v {
			return false
		}
		if u > v {
			u, v = v, u
		}
		k := [2]int{u, v}
		if have[k] {
			return false
		}
		have[k] = true
		b.AddEdge(u, v)
		return true
	}
	// Random spanning tree: attach each node to a random earlier node.
	for v := 1; v < n; v++ {
		add(v, rng.Intn(v))
	}
	maxEdges := n * (n - 1) / 2
	for tries := 0; extra > 0 && len(have) < maxEdges && tries < 100*extra+1000; tries++ {
		if add(rng.Intn(n), rng.Intn(n)) {
			extra--
		}
	}
	return b.Graph()
}

// Fig2c returns the paper's Figure 2(c) multigraph: a triangle {x,y,z}
// (edges labeled by direction in the figure) plus a double edge between
// x and y and a loop at z. Every node has degree 4 and, under the figure's
// labeling, all three nodes have the same view although all label-
// equivalence classes have size 1. Node order: x=0, y=1, z=2.
// The figure's port labels are applied by labeling.Fig2cLabeling.
func Fig2c() *Graph {
	b := NewBuilder(3)
	b.AddEdge(0, 1) // ring edge x-y
	b.AddEdge(1, 2) // ring edge y-z
	b.AddEdge(2, 0) // ring edge z-x
	b.AddEdge(0, 1) // mess edge e1
	b.AddEdge(0, 1) // mess edge e2
	b.AddEdge(2, 2) // loop f at z
	return b.Graph()
}

// RandomRegular returns a random simple connected d-regular graph on n nodes
// via the configuration (pairing) model: n*d stubs are shuffled and paired,
// and the attempt is rejected wholesale if the pairing produces a loop, a
// parallel edge, or a disconnected graph. For constant d the acceptance
// probability is bounded below by a constant (~e^{-(d²-1)/4}), so a bounded
// number of restarts suffices in practice; the result is deterministic for a
// fixed (n, d, seed). Requires n*d even, d >= 1 and d < n; panics otherwise
// or if no simple connected pairing is found within the restart budget.
func RandomRegular(n, d int, seed int64) *Graph {
	if n <= 0 || d < 1 || d >= n || n*d%2 != 0 {
		panic(fmt.Sprintf("graph: RandomRegular(%d, %d): need 0 < d < n and n*d even", n, d))
	}
	rng := lazyrand.New(seed)
	stubs := make([]int, n*d)
	for attempt := 0; attempt < 500; attempt++ {
		for i := range stubs {
			stubs[i] = i / d
		}
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		b := NewBuilder(n)
		seen := make(map[[2]int]bool, n*d/2)
		ok := true
		for i := 0; i < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			if u == v {
				ok = false
				break
			}
			if u > v {
				u, v = v, u
			}
			if seen[[2]int{u, v}] {
				ok = false
				break
			}
			seen[[2]int{u, v}] = true
			b.AddEdge(u, v)
		}
		if !ok {
			continue
		}
		g := b.Graph()
		if g.IsConnected() {
			return g
		}
	}
	panic(fmt.Sprintf("graph: RandomRegular(%d, %d, %d): no simple connected pairing in budget", n, d, seed))
}

// BlowupCycle returns the t-fold blowup of the cycle C_k: each cycle node i
// becomes an independent set of t twin copies {i*t, ..., i*t+t-1}, and every
// copy of i is joined to every copy of i±1 (mod k). The n = k*t nodes fall
// into k classes of t mutually-interchangeable twins, so the automorphism
// group has order at least (t!)^k · 2k — a stress kernel for twin-heavy
// canonical search, where orbit pruning must collapse the factorial blowup.
// Requires k >= 3 and t >= 1.
func BlowupCycle(k, t int) *Graph {
	if k < 3 || t < 1 {
		panic(fmt.Sprintf("graph: BlowupCycle(%d, %d): need k >= 3, t >= 1", k, t))
	}
	b := NewBuilder(k * t)
	for i := 0; i < k; i++ {
		j := (i + 1) % k
		for a := 0; a < t; a++ {
			for c := 0; c < t; c++ {
				b.AddEdge(i*t+a, j*t+c)
			}
		}
	}
	return b.Graph()
}
