package lazyrand

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// diffDraws exceeds the 607-word register three times over, so every
// comparison covers the lazily built first pass and the materialised
// steady state that follows it.
const diffDraws = 2000

// differentialSeeds are the seeds the differential test compares: the
// normalisation edge cases of math/rand's Seed (0, ±1, multiples of the
// 2³¹−1 modulus, which all fold to the substitute seed 89482311, that seed
// itself, ±2⁶² and the int64 extremes), then a few hundred seeded randoms.
func differentialSeeds() []int64 {
	seeds := []int64{0, 1, -1, zeroAlt, -zeroAlt, 1 << 62, -1 << 62, math.MaxInt64, math.MinInt64}
	for k := int64(1); k <= 4; k++ {
		seeds = append(seeds, k*modulus, -k*modulus, k*modulus+1, k*modulus-1)
	}
	seeds = append(seeds, math.MaxInt64/modulus*modulus, math.MinInt64/modulus*modulus)
	rng := rand.New(rand.NewSource(20030611))
	for i := 0; i < 300; i++ {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	return seeds
}

// reseedAfter are the draw counts after which the differential test
// re-seeds a source that was seeded with another seed: before, inside and
// past the first register pass, so Seed must reset the cursors and the
// lazily built words wherever they stand.
var reseedAfter = []int{0, 1, regTap - 1, regTap, regLen - 1, regLen, 3*regLen + 5}

// TestSourceMatchesMathRand compares each seed's Uint64 stream and Int63
// stream with rand.NewSource's, and a Rand's Perm(d) for d = 1…64. The
// Uint64 stream comes from a source re-seeded mid-stream (at a position
// taken in turn from reseedAfter), the Int63 stream from a source re-seeded
// after diffDraws draws.
func TestSourceMatchesMathRand(t *testing.T) {
	for i, seed := range differentialSeeds() {
		want := rand.NewSource(seed).(rand.Source64)
		got := newSource(seed + 1)
		drawn := reseedAfter[i%len(reseedAfter)]
		for k := 0; k < drawn; k++ {
			got.Uint64()
		}
		got.Seed(seed)
		for k := 0; k < diffDraws; k++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d, re-seeded after %d draws: Uint64 draw %d = %#x, math/rand %#x", seed, drawn, k, g, w)
			}
		}
		want.Seed(seed)
		got.Seed(seed)
		for k := 0; k < diffDraws; k++ {
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("seed %d: Int63 draw %d after re-seed = %d, math/rand %d", seed, k, g, w)
			}
		}
		for d := 1; d <= 64; d++ {
			if w, g := rand.New(rand.NewSource(seed)).Perm(d), New(seed).Perm(d); !reflect.DeepEqual(w, g) {
				t.Fatalf("seed %d: Perm(%d) = %v, math/rand %v", seed, d, g, w)
			}
		}
	}
}

// FuzzSourceMatchesMathRand compares draws uint16 values of the stream of an
// arbitrary seed with rand.NewSource's.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(10))
	f.Add(int64(modulus), uint16(regLen))
	f.Add(int64(-1), uint16(diffDraws))
	f.Add(int64(math.MinInt64), uint16(regTap))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		want := rand.NewSource(seed).(rand.Source64)
		got := newSource(seed)
		for k := 0; k < int(draws); k++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d: draw %d = %#x, math/rand %#x", seed, k, g, w)
			}
		}
	})
}

// TestShortStreamAllocatesNoRegister: a stream that ends before draw regTap
// never allocates the 4.9 KB register, so New(seed).Perm(8) costs only the
// Rand, the source and the permutation.
func TestShortStreamAllocatesNoRegister(t *testing.T) {
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		permSink = New(int64(i)).Perm(8)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 256 {
		t.Fatalf("New(seed).Perm(8) allocated %d B per call, want at most 256", per)
	}
}

var (
	permSink   []int
	uint64Sink uint64
)

func BenchmarkPerm3(b *testing.B) {
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = rand.New(rand.NewSource(int64(i))).Perm(3)
		}
	})
	b.Run("lazyrand-reseed", func(b *testing.B) {
		b.ReportAllocs()
		src := newSource(0)
		r := rand.New(src)
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
			_ = r.Perm(3)
		}
	})
}

// BenchmarkLongStream draws from one seeded source without re-seeding, so
// nearly every draw runs in the materialised steady state.
func BenchmarkLongStream(b *testing.B) {
	src := newSource(1)
	var x uint64
	for i := 0; i < b.N; i++ {
		x += src.Uint64()
	}
	uint64Sink = x
}
