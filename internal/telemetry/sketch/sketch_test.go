package sketch

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestBucketRoundTrip: every value's bucket upper bound is >= the value
// and within the documented relative error.
func TestBucketRoundTrip(t *testing.T) {
	vals := []int64{0, 1, 2, 31, 32, 33, 63, 64, 65, 127, 128, 1000, 1 << 20, 1<<40 + 12345, 1 << 62}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		vals = append(vals, rng.Int63())
	}
	for _, v := range vals {
		u := bucketUpper(bucketIndex(v))
		if u < v {
			t.Fatalf("bucketUpper(bucketIndex(%d)) = %d < value", v, u)
		}
		if float64(u) > float64(v)*(1+RelativeError)+1 {
			t.Fatalf("bucketUpper(bucketIndex(%d)) = %d exceeds relative error bound", v, u)
		}
	}
	if bucketIndex(1<<62) >= maxBuckets {
		t.Fatalf("bucketIndex(1<<62) = %d out of maxBuckets %d", bucketIndex(1<<62), maxBuckets)
	}
}

// TestQuantileErrorBound: sketch quantiles vs exact nearest-rank
// percentiles over random data stay within RelativeError.
func TestQuantileErrorBound(t *testing.T) {
	for _, dist := range []string{"uniform", "exp", "small"} {
		rng := rand.New(rand.NewSource(7))
		var h Hist
		exact := make([]int64, 0, 20000)
		for i := 0; i < 20000; i++ {
			var v int64
			switch dist {
			case "uniform":
				v = rng.Int63n(1_000_000)
			case "exp":
				v = int64(1) << uint(rng.Intn(40))
			case "small":
				v = rng.Int63n(20)
			}
			h.Observe(v)
			exact = append(exact, v)
		}
		sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			rank := int(q * float64(len(exact)))
			if rank < 1 {
				rank = 1
			}
			want := exact[rank-1]
			got := h.Quantile(q)
			if got < want || float64(got) > float64(want)*(1+RelativeError)+1 {
				t.Errorf("%s q=%v: sketch %d vs exact %d outside error bound", dist, q, got, want)
			}
		}
		if h.Min() != exact[0] || h.Max() != exact[len(exact)-1] {
			t.Errorf("%s: min/max %d/%d vs exact %d/%d", dist, h.Min(), h.Max(), exact[0], exact[len(exact)-1])
		}
	}
}

// TestMergeEqualsSingle is the property the campaign sharding relies on:
// random shards merged in random order are identical — field for field —
// to the single sketch that observed every value.
func TestMergeEqualsSingle(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		nShards := 1 + rng.Intn(8)
		shards := make([]*Hist, nShards)
		for i := range shards {
			shards[i] = &Hist{}
		}
		var single Hist
		for i := 0; i < 5000; i++ {
			v := rng.Int63n(1 << uint(1+rng.Intn(40)))
			single.Observe(v)
			shards[rng.Intn(nShards)].Observe(v)
		}
		// Merge in a random order.
		merged := &Hist{}
		for _, i := range rng.Perm(nShards) {
			merged.Merge(shards[i])
		}
		if merged.Count() != single.Count() || merged.Sum() != single.Sum() ||
			merged.Min() != single.Min() || merged.Max() != single.Max() {
			t.Fatalf("trial %d: merged (%d,%d,%d,%d) != single (%d,%d,%d,%d)",
				trial, merged.Count(), merged.Sum(), merged.Min(), merged.Max(),
				single.Count(), single.Sum(), single.Min(), single.Max())
		}
		for q := 0.0; q <= 1.0; q += 0.05 {
			if merged.Quantile(q) != single.Quantile(q) {
				t.Fatalf("trial %d: q=%v merged %d != single %d", trial, q, merged.Quantile(q), single.Quantile(q))
			}
		}
	}
}

// TestMergeAssociativeCommutative: (a⊕b)⊕c == a⊕(b⊕c) == c⊕(b⊕a),
// compared by deep equality of the full state.
func TestMergeAssociativeCommutative(t *testing.T) {
	build := func(seed int64, n int) *Hist {
		rng := rand.New(rand.NewSource(seed))
		h := &Hist{}
		for i := 0; i < n; i++ {
			h.Observe(rng.Int63n(1 << 30))
		}
		return h
	}
	a, b, c := build(1, 100), build(2, 5000), build(3, 17)
	left := &Hist{}
	left.Merge(a)
	left.Merge(b)
	left.Merge(c)
	rightInner := b.Clone()
	rightInner.Merge(c)
	right := a.Clone()
	right.Merge(rightInner)
	rev := &Hist{}
	rev.Merge(c)
	rev.Merge(b)
	rev.Merge(a)
	norm := func(h *Hist) *Hist {
		// Trailing-zero bucket tails depend on merge order; trim before
		// comparing.
		n := h.Clone()
		for len(n.counts) > 0 && n.counts[len(n.counts)-1] == 0 {
			n.counts = n.counts[:len(n.counts)-1]
		}
		return n
	}
	if !reflect.DeepEqual(norm(left), norm(right)) {
		t.Fatal("merge is not associative")
	}
	if !reflect.DeepEqual(norm(left), norm(rev)) {
		t.Fatal("merge is not commutative")
	}
}

func TestHistEdgeCases(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should read as zero")
	}
	h.Observe(-5) // clamps to 0
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Fatalf("negative clamp: min=%d max=%d count=%d", h.Min(), h.Max(), h.Count())
	}
	h.Add(100, 0) // no-op
	if h.Count() != 1 {
		t.Fatal("Add with n<=0 must not count")
	}
	h.Merge(nil) // no-op
	h.Reset()
	if h.Count() != 0 || h.Quantile(1) != 0 {
		t.Fatal("reset did not empty the histogram")
	}
	h.Observe(42)
	if got := h.Quantile(1); got != 42 {
		t.Fatalf("single observation quantile = %d, want 42 (clamped to max)", got)
	}
}
