package sketch

import (
	"math/rand"
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

func TestHistEdgeCases(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 || h.Count() != 0 {
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
	h.Reset()
	if h.Count() != 0 || h.Quantile(1) != 0 {
		t.Fatal("reset did not empty the histogram")
	}
	h.Observe(42)
	if got := h.Quantile(1); got != 42 {
		t.Fatalf("single observation quantile = %d, want 42 (clamped to max)", got)
	}
}
