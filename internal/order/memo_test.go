package order

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/graph"
)

// memoCase is one colored input of the memo tests.
type memoCase struct {
	name   string
	g      *graph.Graph
	colors []int
}

// memoCorpus mixes symmetric and rigid graphs, node weights above 1, and a
// multigraph with a loop and parallel edges.
func memoCorpus() []memoCase {
	mb := graph.NewBuilder(4)
	mb.AddEdge(0, 1)
	mb.AddEdge(0, 1)
	mb.AddEdge(1, 2)
	mb.AddEdge(2, 3)
	mb.AddEdge(3, 0)
	mb.AddEdge(2, 2)
	return []memoCase{
		{"c12", graph.Cycle(12), blackColors(12, []int{0, 4, 8})},
		{"c6-adjacent", graph.Cycle(6), blackColors(6, []int{0, 1})},
		{"path5", graph.Path(5), blackColors(5, []int{0})},
		{"path3-weights", graph.Path(3), []int{2, 0, 1}},
		{"q2", graph.Hypercube(2), blackColors(4, []int{0})},
		{"q3", graph.Hypercube(3), blackColors(8, []int{0, 1, 3})},
		{"q4", graph.Hypercube(4), blackColors(16, []int{0, 15})},
		{"petersen", graph.Petersen(), blackColors(10, []int{0, 1})},
		{"torus3x4", graph.Torus(3, 4), blackColors(12, []int{0, 6})},
		{"grid3x3-weight2", graph.Grid(3, 3), blackColors(9, []int{0, 0, 8})},
		{"wheel6", graph.Wheel(6), blackColors(7, []int{1, 4})},
		{"random10", graph.RandomConnected(10, 6, 13), blackColors(10, []int{0, 2, 5, 8})},
		{"random12", graph.RandomConnected(12, 8, 7), blackColors(12, []int{1, 3})},
		{"multigraph", mb.Graph(), []int{1, 0, 0, 2}},
	}
}

// relabeled returns tc under a random numbering of its nodes.
func relabeled(t *testing.T, tc memoCase, rng *rand.Rand) memoCase {
	t.Helper()
	n := tc.g.N()
	p := rng.Perm(n)
	h, err := tc.g.Relabel(p)
	if err != nil {
		t.Fatal(err)
	}
	colors := make([]int, n)
	for v, c := range tc.colors {
		colors[p[v]] = c
	}
	return memoCase{tc.name, h, colors}
}

// TestMemoMatchesComputeAndOrder: every result through a shared memo equals
// a fresh ComputeAndOrder of the same input, on hits, on misses and after
// the entry is replaced. Each case runs twice in a row under new numberings
// (a miss, then a hit of an isomorphic input), and the cases interleave, so
// every case replaces the previous case's entry.
func TestMemoMatchesComputeAndOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var memo Memo
	var hits, misses, replaced int
	for _, ord := range []Ordering{Direct, Hairs} {
		for round := 0; round < 4; round++ {
			for _, base := range memoCorpus() {
				for rep := 0; rep < 2; rep++ {
					tc := relabeled(t, base, rng)
					want := ComputeAndOrder(tc.g, tc.colors, ord)
					before := memo.last.Load()
					hit := memo.lookup(ord, want.Canon.Word) != nil
					keys := KeysComputed()
					got := memo.ComputeAndOrder(tc.g, tc.colors, ord)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s ord=%d round %d: memo result differs from a fresh ComputeAndOrder:\n got %+v\nwant %+v", tc.name, ord, round, got, want)
					}
					switch after := memo.last.Load(); {
					case hit:
						hits++
						if d := KeysComputed() - keys; d != 0 {
							t.Fatalf("%s ord=%d: a memo hit computed %d class keys", tc.name, ord, d)
						}
					case before != nil && after != before:
						replaced++
						misses++
					default:
						misses++
					}
				}
			}
		}
	}
	if hits == 0 || misses == 0 || replaced == 0 {
		t.Fatalf("hits %d, misses %d, replacements %d: the corpus must exercise all three", hits, misses, replaced)
	}
}

// TestMemoConcurrent: eight goroutines share one memo on mixed inputs, so
// lookups race with entry replacements. Every result must equal a fresh
// ComputeAndOrder of its input.
func TestMemoConcurrent(t *testing.T) {
	type input struct {
		tc   memoCase
		ord  Ordering
		want *Ordered
	}
	rng := rand.New(rand.NewSource(2))
	var inputs []input
	for _, base := range memoCorpus()[:8] {
		for _, ord := range []Ordering{Direct, Hairs} {
			for rep := 0; rep < 3; rep++ {
				tc := relabeled(t, base, rng)
				inputs = append(inputs, input{tc, ord, ComputeAndOrder(tc.g, tc.colors, ord)})
			}
		}
	}
	var memo Memo
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range inputs {
				in := inputs[(i+w*len(inputs)/8)%len(inputs)]
				if got := memo.ComputeAndOrder(in.tc.g, in.tc.colors, in.ord); !reflect.DeepEqual(got, in.want) {
					t.Errorf("goroutine %d, %s ord=%d: memo result differs from a fresh ComputeAndOrder", w, in.tc.name, in.ord)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestMemoWeightsBeyondWordByte: P2 with weights {1, 1} and {1, 257} are
// not isomorphic, yet a dense word that kept one byte per weight gave them
// the same word. The second must not read the first's single class of
// size 2 from the memo.
func TestMemoWeightsBeyondWordByte(t *testing.T) {
	var memo Memo
	g := graph.Path(2)
	memo.ComputeAndOrder(g, []int{1, 1}, Direct)
	want := ComputeAndOrder(g, []int{1, 257}, Direct)
	if got := memo.ComputeAndOrder(g, []int{1, 257}, Direct); !reflect.DeepEqual(got, want) {
		t.Fatalf("weights {1, 257}: memo classes %v, fresh %v", got.Classes, want.Classes)
	}
}

// TestMemoLargePath: the large path is already one search and bypasses the
// memo, so its results are the same with and without one and leave the
// memo empty.
func TestMemoLargePath(t *testing.T) {
	withLowThreshold(t, func() {
		var memo Memo
		for _, tc := range memoCorpus() {
			for rep := 0; rep < 2; rep++ {
				want := ComputeAndOrder(tc.g, tc.colors, Direct)
				if got := memo.ComputeAndOrder(tc.g, tc.colors, Direct); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: large-path result differs with a memo", tc.name)
				}
			}
		}
		if memo.last.Load() != nil {
			t.Fatal("the large path stored a memo entry")
		}
	})
}
