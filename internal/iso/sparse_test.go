package iso

// Tests of the O(n+m) sparse canonical engine: agreement with the dense
// engine on isomorphism classification, invariance under relabeling, and
// orbit computation.

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/perm"
)

func sparseFamilies() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"petersen":    graph.Petersen(),
		"c64":         graph.Cycle(64),
		"q4":          graph.Hypercube(4),
		"torus4x5":    graph.Torus(4, 5),
		"grid3x4":     graph.Grid(3, 4),
		"wheel7":      graph.Wheel(7),
		"prism8":      graph.Prism(8),
		"blowup4x3":   graph.BlowupCycle(4, 3),
		"randreg14x3": graph.RandomRegular(14, 3, 11),
		"randconn":    graph.RandomConnected(13, 6, 5),
	}
}

// TestSparseRelabelingInvariance: the sparse canonical word must be the same
// for every relabeling of the same colored graph — the defining invariance.
func TestSparseRelabelingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for name, g := range sparseFamilies() {
		n := g.N()
		cols := make([]int, n)
		for i := range cols {
			cols[i] = rng.Intn(2)
		}
		want := CanonicalSparse(SparseFromGraph(g, cols)).Word
		for trial := 0; trial < 4; trial++ {
			p := rng.Perm(n)
			h, err := g.Relabel(p)
			if err != nil {
				t.Fatal(err)
			}
			hcols := make([]int, n)
			for v, c := range cols {
				hcols[p[v]] = c
			}
			got := CanonicalSparse(SparseFromGraph(h, hcols))
			if !bytes.Equal(got.Word, want) {
				t.Fatalf("%s trial %d: sparse word not relabeling-invariant", name, trial)
			}
		}
	}
}

// TestSparseVsDenseClassification: the two engines use different word
// serializations, so words are not comparable across engines — but their
// equality relations must coincide. Pairs of graphs are classified as
// isomorphic or not by both engines and the verdicts compared.
func TestSparseVsDenseClassification(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	mk := func() *Colored { return randomConnectedMulti(rng, 9) }
	for trial := 0; trial < 150; trial++ {
		a := mk()
		var b *Colored
		if trial%2 == 0 {
			b = a.Permuted(perm.Perm(rng.Perm(a.N)))
		} else {
			b = mk()
		}
		dense := bytes.Equal(Canonical(a).Word, Canonical(b).Word)
		sparse := bytes.Equal(
			CanonicalSparse(SparseFromColored(a)).Word,
			CanonicalSparse(SparseFromColored(b)).Word)
		if dense != sparse {
			t.Fatalf("trial %d: dense engine says isomorphic=%v, sparse says %v", trial, dense, sparse)
		}
	}
}

// TestSparseAutomorphismsValid: every generator returned by the sparse
// engine must be a real automorphism of the sparse graph.
func TestSparseAutomorphismsValid(t *testing.T) {
	for name, g := range sparseFamilies() {
		sp := SparseFromGraph(g, nil)
		res := CanonicalSparse(sp)
		if !bytes.Equal(sparseWordOf(sp, res.Perm), res.Word) {
			t.Fatalf("%s: sparse Perm does not serialize to Word", name)
		}
		for _, a := range res.AutoGens {
			if !sp.IsAutomorphism(a) {
				t.Fatalf("%s: sparse engine emitted a non-automorphism", name)
			}
		}
	}
}

// sparseWordOf serializes the sparse word of an arbitrary labeling p by
// driving the engine's own block encoder over the fully placed labeling
// (appendSparseBlock only looks at positions j <= i, so placing everything
// up front is safe). It is the sparse analogue of Colored.word.
func sparseWordOf(sp *Sparse, p perm.Perm) []byte {
	st := newSparseCanonState(sp)
	lv := st.level(0)
	st.initialPartition(lv)
	st.prepareRootPrefix(lv)
	inv := p.Inverse()
	for i := 0; i < sp.N; i++ {
		st.posOf[inv[i]] = int32(i)
	}
	for i := 0; i < sp.N; i++ {
		st.appendSparseBlock(i, inv[i])
	}
	return append([]byte(nil), st.prefix...)
}

// TestSparseOrbitsVsDense: sparse orbit computation must produce exactly the
// dense engine's automorphism orbits, on plain and colored graphs.
func TestSparseOrbitsVsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for name, g := range sparseFamilies() {
		for _, colored := range []bool{false, true} {
			var cols []int
			if colored {
				cols = make([]int, g.N())
				for i := range cols {
					cols[i] = rng.Intn(2)
				}
			}
			want := Orbits(FromGraph(g, cols))
			got, err := SparseOrbits(context.Background(), SparseFromGraph(g, cols))
			if err != nil {
				t.Fatalf("%s colored=%v: %v", name, colored, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s colored=%v: sparse orbits %v != dense %v", name, colored, got, want)
			}
		}
	}
}

// TestSparseEquitableVsDense: the sparse equitable partition must match the
// dense engine's cell-for-cell.
func TestSparseEquitableVsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 60; trial++ {
		c := randomConnectedMulti(rng, 10)
		want := EquitablePartition(c)
		got := SparseEquitablePartition(SparseFromColored(c))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: sparse equitable partition differs", trial)
		}
	}
}

// TestSparseFromArcsDigraph: arc-list construction must agree with
// NewDigraph-based dense classification on random digraphs with
// multiplicities and loops.
func TestSparseFromArcsDigraph(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(7)
		var arcs [][2]int
		for a := rng.Intn(3 * n); a > 0; a-- {
			arcs = append(arcs, [2]int{rng.Intn(n), rng.Intn(n)})
		}
		cols := make([]int, n)
		for i := range cols {
			cols[i] = rng.Intn(2)
		}
		// Relabel and compare: the sparse words of the digraph and a random
		// relabeling must be equal.
		p := rng.Perm(n)
		var arcs2 [][2]int
		for _, uv := range arcs {
			arcs2 = append(arcs2, [2]int{p[uv[0]], p[uv[1]]})
		}
		cols2 := make([]int, n)
		for v, c := range cols {
			cols2[p[v]] = c
		}
		w1 := CanonicalSparse(SparseFromArcs(n, arcs, cols)).Word
		w2 := CanonicalSparse(SparseFromArcs(n, arcs2, cols2)).Word
		if !bytes.Equal(w1, w2) {
			t.Fatalf("trial %d: sparse digraph word not relabeling-invariant", trial)
		}
		// And agreement with the dense digraph engine's verdict against an
		// independent digraph.
		m := 2 + rng.Intn(7)
		var arcs3 [][2]int
		for a := rng.Intn(3 * m); a > 0; a-- {
			arcs3 = append(arcs3, [2]int{rng.Intn(m), rng.Intn(m)})
		}
		cols3 := make([]int, m)
		for i := range cols3 {
			cols3[i] = rng.Intn(2)
		}
		dense := bytes.Equal(
			Canonical(NewDigraph(n, arcs, cols)).Word,
			Canonical(NewDigraph(m, arcs3, cols3)).Word)
		sparse := bytes.Equal(w1, CanonicalSparse(SparseFromArcs(m, arcs3, cols3)).Word)
		if dense != sparse {
			t.Fatalf("trial %d: digraph classification disagrees (dense=%v sparse=%v)", trial, dense, sparse)
		}
	}
}

// TestSparseFromGraphLoopsAndMultis: the Graph→Sparse bridge must preserve
// loop and parallel-edge multiplicities (a loop contributes 2 to the
// adjacency diagonal, matching AdjacencyMatrix).
func TestSparseFromGraphLoopsAndMultis(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1) // double edge
	b.AddEdge(1, 2)
	b.AddEdge(2, 2) // loop
	g := b.Graph()
	sp := SparseFromGraph(g, nil)
	adj := g.AdjacencyMatrix()
	for u := 0; u < 3; u++ {
		for v := 0; v < 3; v++ {
			if got := int(csrOutMult(sp.g, u, int32(v))); got != adj[u][v] {
				t.Fatalf("mult(%d,%d) = %d, want %d", u, v, got, adj[u][v])
			}
		}
	}
	// Classification must agree with the dense engine on this multigraph.
	c := FromGraph(g, nil)
	pm := perm.Perm{2, 0, 1}
	if !bytes.Equal(
		CanonicalSparse(sp).Word,
		CanonicalSparse(SparseFromColored(c.Permuted(pm))).Word) {
		t.Fatal("sparse words differ across a relabeling of the multigraph")
	}
}
