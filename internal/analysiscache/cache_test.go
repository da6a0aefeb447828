package analysiscache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/elect"
	"repro/internal/graph"
	"repro/internal/order"
)

// TestCoalescing is the load-bearing singleflight proof: N concurrent
// requests for one instance trigger exactly one analyze call, with the
// joiners counted as coalesced.
func TestCoalescing(t *testing.T) {
	const n = 32
	var calls atomic.Int64
	gate := make(chan struct{})
	c := New(Config{
		Analyze: func(ctx context.Context, g *graph.Graph, homes []int) (*elect.Analysis, error) {
			calls.Add(1)
			<-gate
			return &elect.Analysis{Sizes: []int{1}, GCD: 1}, nil
		},
	})
	g := graph.Cycle(12)
	homes := []int{0, 4, 8}

	var wg sync.WaitGroup
	var served atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			an, _, err := c.Get(context.Background(), g, homes)
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			if an.GCD != 1 {
				t.Errorf("wrong analysis: %+v", an)
			}
			served.Add(1)
		}()
	}
	// Let every goroutine reach the cache before releasing the one compute.
	for c.Stats().Misses+c.Stats().Coalesced < n {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("analyze ran %d times for %d concurrent requests, want exactly 1", got, n)
	}
	if served.Load() != n {
		t.Fatalf("served %d of %d", served.Load(), n)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Coalesced != n-1 {
		t.Fatalf("stats misses=%d coalesced=%d, want 1 and %d", s.Misses, s.Coalesced, n-1)
	}
}

func TestHitAfterCompletion(t *testing.T) {
	var calls atomic.Int64
	c := New(Config{
		Analyze: func(ctx context.Context, g *graph.Graph, homes []int) (*elect.Analysis, error) {
			calls.Add(1)
			return &elect.Analysis{Sizes: []int{2, 2}, GCD: 2}, nil
		},
	})
	g := graph.Cycle(6)
	if _, hit, err := c.Get(context.Background(), g, []int{0, 3}); err != nil || hit {
		t.Fatalf("first Get: hit=%v err=%v", hit, err)
	}
	an, hit, err := c.Get(context.Background(), g, []int{3, 0}) // order-insensitive key
	if err != nil || !hit {
		t.Fatalf("second Get: hit=%v err=%v", hit, err)
	}
	if an.GCD != 2 || calls.Load() != 1 {
		t.Fatalf("an=%+v calls=%d", an, calls.Load())
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestErrorsAreCached(t *testing.T) {
	var calls atomic.Int64
	wantErr := fmt.Errorf("analysis exploded")
	c := New(Config{
		Analyze: func(ctx context.Context, g *graph.Graph, homes []int) (*elect.Analysis, error) {
			calls.Add(1)
			return nil, wantErr
		},
	})
	g := graph.Path(3)
	for i := 0; i < 3; i++ {
		if _, _, err := c.Get(context.Background(), g, []int{0}); err != wantErr {
			t.Fatalf("Get %d: err=%v", i, err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("error recomputed: %d calls", calls.Load())
	}
}

// TestEviction fills a tiny cache with distinct instances on one shard and
// checks the LRU keeps memory bounded and re-computes evicted entries.
func TestEviction(t *testing.T) {
	var calls atomic.Int64
	c := New(Config{
		Analyze: func(ctx context.Context, g *graph.Graph, homes []int) (*elect.Analysis, error) {
			calls.Add(1)
			return &elect.Analysis{Sizes: []int{g.N()}, GCD: g.N()}, nil
		},
		MaxBytes: 2048,
		Shards:   1,
	})
	for n := 3; n < 40; n++ {
		if _, _, err := c.Get(context.Background(), graph.Cycle(n), []int{0}); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Evictions == 0 {
		t.Fatalf("no evictions across 37 inserts into a 2KiB cache: %+v", s)
	}
	if s.SizeBytes > 2048 {
		t.Fatalf("resident size %d exceeds the byte budget", s.SizeBytes)
	}
	// The oldest instance was evicted; re-getting it recomputes.
	before := calls.Load()
	if _, hit, err := c.Get(context.Background(), graph.Cycle(3), []int{0}); err != nil || hit {
		t.Fatalf("evicted entry served as hit=%v err=%v", hit, err)
	}
	if calls.Load() != before+1 {
		t.Fatal("evicted entry did not recompute")
	}
}

func TestUnboundedWhenNegative(t *testing.T) {
	c := New(Config{
		Analyze: func(ctx context.Context, g *graph.Graph, homes []int) (*elect.Analysis, error) {
			return &elect.Analysis{GCD: 1}, nil
		},
		MaxBytes: -1,
		Shards:   1,
	})
	for n := 3; n < 60; n++ {
		if _, _, err := c.Get(context.Background(), graph.Cycle(n), []int{0}); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.Evictions != 0 || s.Entries != 57 {
		t.Fatalf("negative MaxBytes must disable eviction: %+v", s)
	}
}

// TestWaiterCancellation: a coalesced waiter whose context dies returns
// promptly while the computation still completes for everyone else.
func TestWaiterCancellation(t *testing.T) {
	gate := make(chan struct{})
	c := New(Config{
		Analyze: func(ctx context.Context, g *graph.Graph, homes []int) (*elect.Analysis, error) {
			<-gate
			return &elect.Analysis{GCD: 1}, nil
		},
	})
	g := graph.Cycle(9)
	go c.Get(context.Background(), g, []int{0}) // the computing caller
	for c.Stats().Misses == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Get(ctx, g, []int{0}); err != context.Canceled {
		t.Fatalf("canceled waiter got err=%v", err)
	}
	close(gate)
	// The result is still available to later callers.
	an, hit, err := c.Get(context.Background(), g, []int{0})
	if err != nil || an.GCD != 1 {
		t.Fatalf("post-cancel Get: an=%+v hit=%v err=%v", an, hit, err)
	}
}

func TestStructuralKey(t *testing.T) {
	a, b := graph.Cycle(6), graph.Cycle(6)
	if StructuralKey(a, []int{0, 2}) != StructuralKey(b, []int{2, 0}) {
		t.Fatal("same structure and homes must share a key")
	}
	if StructuralKey(a, []int{0, 2}) == StructuralKey(a, []int{0, 3}) {
		t.Fatal("different homes must not share a key")
	}
	if StructuralKey(a, []int{0, 2}) == StructuralKey(graph.Cycle(7), []int{0, 2}) {
		t.Fatal("different graphs must not share a key")
	}
	if StructuralKey(a, []int{0, 0, 2}) == StructuralKey(a, []int{0, 2}) {
		t.Fatal("home multiplicity must be part of the key")
	}
}

// TestCanonicalKeyIsomorphism: renumbered copies of one instance share a
// canonical key (the daemon's coalescing unit) while genuinely different
// placements do not.
func TestCanonicalKeyIsomorphism(t *testing.T) {
	g := graph.Cycle(8)
	// Rotate the cycle by 3: an isomorphism carrying homes {0,4} to {3,7}.
	perm := make([]int, 8)
	for i := range perm {
		perm[i] = (i + 3) % 8
	}
	h, err := g.Relabel(perm)
	if err != nil {
		t.Fatal(err)
	}
	if CanonicalKey(g, []int{0, 4}) != CanonicalKey(h, []int{3, 7}) {
		t.Fatal("isomorphic instances must share a canonical key")
	}
	if StructuralKey(g, []int{0, 4}) == StructuralKey(h, []int{3, 7}) {
		t.Fatal("sanity: the structural key is numbering-sensitive here")
	}
	if CanonicalKey(g, []int{0, 4}) == CanonicalKey(g, []int{0, 3}) {
		t.Fatal("antipodal vs adjacent homes must not share a canonical key")
	}
}

// TestCanonicalKeyLarge: a key is the sparse word, O(n+m) bytes. At
// order.LargeThreshold nodes a relabeled copy shares it, a non-isomorphic
// placement does not, and it stays far below the n+n² bytes of a dense
// word, which would overflow a cache shard on its own.
func TestCanonicalKeyLarge(t *testing.T) {
	n := order.LargeThreshold
	g := graph.RandomRegular(n, 3, 1)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = (n + 10 - i) % n // reverse and rotate the numbering
	}
	h, err := g.Relabel(perm)
	if err != nil {
		t.Fatal(err)
	}
	key := CanonicalKey(g, []int{0, 1, 2})
	if CanonicalKey(h, []int{perm[0], perm[1], perm[2]}) != key {
		t.Fatal("a relabeled large instance must share its canonical key")
	}
	if CanonicalKey(g, []int{0, 1}) == key {
		t.Fatal("two homes and three homes must not share a canonical key")
	}
	if len(key) > n*n/64 {
		t.Fatalf("large key is %d bytes; want the O(n+m) sparse word", len(key))
	}
}

// TestRealAnalyzeDefault exercises the zero-config path against the real
// oracle: C6 with antipodal homes has gcd 2 (unsolvable).
func TestRealAnalyzeDefault(t *testing.T) {
	c := New(Config{})
	an, _, err := c.Get(context.Background(), graph.Cycle(6), []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if an.GCD != 2 {
		t.Fatalf("C6 antipodal gcd = %d, want 2", an.GCD)
	}
}

// TestAllWaitersCancelStopsCompute: when every waiter of an in-flight entry
// cancels, the computation's own context must be canceled, the entry
// dropped, and a later Get must recompute from scratch.
func TestAllWaitersCancelStopsCompute(t *testing.T) {
	var calls atomic.Int64
	computeCanceled := make(chan struct{})
	c := New(Config{
		Analyze: func(ctx context.Context, g *graph.Graph, homes []int) (*elect.Analysis, error) {
			if calls.Add(1) == 1 {
				<-ctx.Done() // block until the cache cancels this compute
				close(computeCanceled)
				return nil, ctx.Err()
			}
			return &elect.Analysis{GCD: 7}, nil
		},
	})
	g := graph.Cycle(10)
	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, 1)
	go func() {
		_, _, err := c.Get(ctx, g, []int{0})
		errs <- err
	}()
	for c.Stats().Misses == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errs; err != context.Canceled {
		t.Fatalf("sole waiter got err=%v, want context.Canceled", err)
	}
	select {
	case <-computeCanceled:
	case <-time.After(5 * time.Second):
		t.Fatal("compute context was not canceled after the last waiter left")
	}
	// The canceled entry must not poison the key: a fresh Get recomputes.
	an, hit, err := c.Get(context.Background(), g, []int{0})
	if err != nil || hit || an.GCD != 7 {
		t.Fatalf("post-cancel recompute: an=%+v hit=%v err=%v", an, hit, err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("analyze calls = %d, want 2 (canceled + recomputed)", got)
	}
}

// TestEntryCostTracksBackingArrays: the accounted size must charge the
// capacity of the Sizes backing array, not its length.
func TestEntryCostTracksBackingArrays(t *testing.T) {
	sizes := make([]int, 4, 1024)
	small := entryCost("k", &elect.Analysis{Sizes: sizes[:4:4]})
	big := entryCost("k", &elect.Analysis{Sizes: sizes})
	if big-small != 8*(1024-4) {
		t.Fatalf("cost delta = %d, want %d (cap-based accounting)", big-small, 8*(1024-4))
	}
}
