package analysiscache

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/elect"
	"repro/internal/graph"
	"repro/internal/iso"
	"repro/internal/order"
)

// connectedGraphs returns one graph of every isomorphism class of connected
// simple graphs on n nodes: every edge subset of K_n, deduplicated by
// canonical key.
func connectedGraphs(n int) []*graph.Graph {
	var pairs [][2]int
	for u := range n {
		for v := u + 1; v < n; v++ {
			pairs = append(pairs, [2]int{u, v})
		}
	}
	seen := map[string]bool{}
	var out []*graph.Graph
	for mask := 0; mask < 1<<len(pairs); mask++ {
		b := graph.NewBuilder(n)
		for i, p := range pairs {
			if mask&(1<<i) != 0 {
				b.AddEdge(p[0], p[1])
			}
		}
		g := b.Graph()
		if !g.IsConnected() {
			continue
		}
		if k := CanonicalKey(g, nil); !seen[k] {
			seen[k] = true
			out = append(out, g)
		}
	}
	return out
}

// homeMultisets returns every multiset of 1 to r homes on n nodes, each
// sorted ascending.
func homeMultisets(n, r int) [][]int {
	var out [][]int
	var grow func(homes []int, from int)
	grow = func(homes []int, from int) {
		if len(homes) > 0 {
			out = append(out, append([]int(nil), homes...))
		}
		if len(homes) == r {
			return
		}
		for v := from; v < n; v++ {
			grow(append(homes, v), v)
		}
	}
	grow(nil, 0)
	return out
}

// renumber returns a copy of (g, homes) under the node renaming
// v ↦ (n + 3 − v) mod n, a reflection followed by a rotation.
func renumber(t *testing.T, g *graph.Graph, homes []int) (*graph.Graph, []int) {
	t.Helper()
	n := g.N()
	p := make([]int, n)
	for v := range p {
		p[v] = (n + 3 - v) % n
	}
	h, err := g.Relabel(p)
	if err != nil {
		t.Fatal(err)
	}
	hh := make([]int, len(homes))
	for i, v := range homes {
		hh[i] = p[v]
	}
	return h, hh
}

// TestCanonicalGetMatchesAnalyze is the differential check of the one-search
// miss: a canonical-mode Get, whose analysis continues from the key's
// search, returns exactly what elect.AnalyzeCtx computes from scratch, and
// runs exactly as many canonical searches (a hit runs the key's alone). The
// inputs are every connected graph on at most five nodes under every home
// multiset of one to three homes, then a cycle and a torus on the large
// path. A renumbered copy of each instance is served from the original's
// entry, and that analysis is also AnalyzeCtx's of the copy.
func TestCanonicalGetMatchesAnalyze(t *testing.T) {
	type instance struct {
		g     *graph.Graph
		homes []int
	}
	var insts []instance
	connected := []int{1: 1, 2: 1, 3: 2, 4: 6, 5: 21} // OEIS A001349
	for n := 1; n < len(connected); n++ {
		gs := connectedGraphs(n)
		if want := connected[n]; len(gs) != want {
			t.Fatalf("%d connected graphs on %d nodes, want %d (OEIS A001349)", len(gs), n, want)
		}
		for _, g := range gs {
			for _, homes := range homeMultisets(n, 3) {
				insts = append(insts, instance{g, homes})
			}
		}
	}
	insts = append(insts,
		instance{graph.Cycle(2048), []int{0, 7}},
		instance{graph.Torus(45, 46), []int{0, 1, 47}})

	ctx := context.Background()
	c := New(Config{Canonical: true, MaxBytes: -1})
	for _, in := range insts {
		before := iso.Stats().Searches
		want, err := elect.AnalyzeCtx(ctx, in.g, in.homes, order.Direct)
		if err != nil {
			t.Fatal(err)
		}
		cost := iso.Stats().Searches - before
		before = iso.Stats().Searches
		got, hit, err := c.Get(ctx, in.g, in.homes)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v homes %v: Get = %+v, AnalyzeCtx = %+v", in.g, in.homes, got, want)
		}
		if spent := iso.Stats().Searches - before; (hit && spent != 1) || (!hit && spent != cost) {
			t.Fatalf("%v homes %v: Get (hit %v) ran %d canonical searches, AnalyzeCtx %d", in.g, in.homes, hit, spent, cost)
		}

		h, hh := renumber(t, in.g, in.homes)
		misses := c.Stats().Misses
		again, hit, err := c.Get(ctx, h, hh)
		if err != nil {
			t.Fatal(err)
		}
		if !hit || again != got || c.Stats().Misses != misses {
			t.Fatalf("%v homes %v: the renumbered copy (homes %v) missed the original's entry", in.g, in.homes, hh)
		}
		if want, err := elect.AnalyzeCtx(ctx, h, hh, order.Direct); err != nil || !reflect.DeepEqual(again, want) {
			t.Fatalf("%v homes %v: entry %+v, AnalyzeCtx of the copy %+v (err %v)", h, hh, again, want, err)
		}
	}
}

// TestCanonicalConcurrentCopies: goroutines asking at once about renumbered
// copies of one instance share one entry, whose analysis continued from the
// first miss's search, and all read AnalyzeCtx's verdict.
func TestCanonicalConcurrentCopies(t *testing.T) {
	const copies = 8
	g, homes := graph.Cycle(12), []int{0, 4, 8}
	want, err := elect.AnalyzeCtx(context.Background(), g, homes, order.Direct)
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{Canonical: true})
	var wg sync.WaitGroup
	for i := range copies {
		h, hh := g, homes
		for range i {
			h, hh = renumber(t, h, hh)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, err := c.Get(context.Background(), h, hh)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("copy %d: Get = %+v (err %v), want %+v", i, got, err, want)
			}
		}()
	}
	wg.Wait()
	if s := c.Stats(); s.Misses != 1 || s.Hits+s.Coalesced != copies-1 {
		t.Fatalf("stats %+v, want one miss for %d copies", s, copies)
	}
}

// TestCanonicalGetKeysByCanonicalKey: a canonical-mode entry is filed under
// CanonicalKey of its instance, the key callers outside the cache compute.
func TestCanonicalGetKeysByCanonicalKey(t *testing.T) {
	c := New(Config{Canonical: true, Shards: 1})
	g, homes := graph.Cycle(9), []int{0, 2, 5}
	if _, _, err := c.Get(context.Background(), g, homes); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.shards[0].entries[CanonicalKey(g, homes)]; !ok || len(c.shards[0].entries) != 1 {
		t.Fatalf("the entry is not keyed by CanonicalKey (%d entries)", len(c.shards[0].entries))
	}
}

// TestCanonicalInjectedAnalyze: in canonical mode an injected Analyze is
// still called as (ctx, g, homes), exactly once per miss, with the caller's
// graph and homes; an isomorphic copy is a hit and calls nothing.
func TestCanonicalInjectedAnalyze(t *testing.T) {
	type call struct {
		g     *graph.Graph
		homes []int
	}
	var calls []call
	c := New(Config{
		Canonical: true,
		Analyze: func(ctx context.Context, g *graph.Graph, homes []int) (*elect.Analysis, error) {
			calls = append(calls, call{g, homes}) // Get waits for its miss's analysis
			return &elect.Analysis{Sizes: []int{g.N()}, GCD: g.N()}, nil
		},
	})
	ctx := context.Background()
	g, homes := graph.Cycle(8), []int{0, 4}
	adjacent := []int{0, 1}
	h, hh := renumber(t, g, homes)
	for _, in := range []call{{g, homes}, {h, hh}, {g, adjacent}, {g, homes}} {
		if _, _, err := c.Get(ctx, in.g, in.homes); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.Misses != 2 || s.Hits != 2 || int64(len(calls)) != s.Misses {
		t.Fatalf("%d calls for stats %+v, want one call per miss and 2 misses", len(calls), s)
	}
	for i, want := range []call{{g, homes}, {g, adjacent}} {
		if calls[i].g != want.g || &calls[i].homes[0] != &want.homes[0] || len(calls[i].homes) != len(want.homes) {
			t.Fatalf("call %d got (%v, %v), want the caller's (%v, %v)", i, calls[i].g, calls[i].homes, want.g, want.homes)
		}
	}
}

// TestCanceledGetComputesNothing: a Get whose context is already canceled
// returns its error, counts no lookup, calls no analysis and leaves no
// entry, in either keying mode and with the default analysis.
func TestCanceledGetComputesNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	counting := func(ctx context.Context, g *graph.Graph, homes []int) (*elect.Analysis, error) {
		calls.Add(1)
		return &elect.Analysis{GCD: 1}, nil
	}
	for _, cfg := range []Config{
		{Canonical: true},
		{Canonical: true, Analyze: counting},
		{Analyze: counting},
	} {
		c := New(cfg)
		if _, _, err := c.Get(ctx, graph.Cycle(6), []int{0, 2}); err != context.Canceled {
			t.Fatalf("canonical=%v: err = %v, want context.Canceled", cfg.Canonical, err)
		}
		if s := c.Stats(); s.Misses+s.Hits+s.Coalesced != 0 || s.Entries != 0 {
			t.Fatalf("canonical=%v: a canceled Get left stats %+v", cfg.Canonical, s)
		}
	}
	if calls.Load() != 0 {
		t.Fatalf("a canceled Get called the analysis %d times", calls.Load())
	}
}
