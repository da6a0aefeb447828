// Package sketch provides the repository's one histogram: an HDR-style
// log-linear Hist whose memory is O(log max) in the observed values and
// independent of the observation count. The telemetry registry's
// histograms are Hists, and cmd/electload folds its request latencies
// into one.
//
// Accuracy is a documented constant, not a function of the data: the
// log-linear bucketing keeps every recorded value within a RelativeError
// (1/32 ≈ 3.1%) of its bucket's reported upper bound, so any quantile is
// off by at most one bucket — see Hist.
//
// A Hist is NOT safe for concurrent use; telemetry.Histogram puts one
// behind a mutex.
package sketch

import (
	"math"
	"math/bits"
)

// SubBits is the number of linear sub-bucket bits per power of two in a
// Hist. 1<<SubBits sub-buckets per octave bound the relative quantization
// error at RelativeError.
const SubBits = 5

// subCount is the number of sub-buckets per octave.
const subCount = 1 << SubBits

// RelativeError is the worst-case relative error of a Hist bucket's
// reported bound: every observed value v lands in a bucket whose upper
// bound u satisfies v <= u <= v·(1+RelativeError).
const RelativeError = 1.0 / subCount

// maxBuckets bounds the bucket array: values up to 2^62 index below it.
const maxBuckets = (63-SubBits)*subCount + subCount

// Hist is a log-linear histogram of non-negative int64 values
// (negatives clamp to 0). Values below 2^SubBits are counted exactly;
// above that, each power of two splits into 2^SubBits linear sub-buckets,
// so the bucket containing v has width <= v·RelativeError. Memory is
// O(log(max observed value)) — ~15 KiB fully grown — independent of the
// observation count.
//
// The zero value is ready to use. Not safe for concurrent use.
type Hist struct {
	// counts grows lazily to the highest bucket observed; index i counts
	// observations in bucket i's value range.
	counts []int64
	count  int64
	sum    int64
	min    int64
	max    int64
}

// bucketIndex maps a value to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < subCount {
		return int(u)
	}
	e := 63 - bits.LeadingZeros64(u)
	shift := uint(e - SubBits)
	return int((uint64(shift)+1)<<SubBits) + int((u>>shift)&(subCount-1))
}

// bucketUpper is the inclusive upper bound of bucket i's value range —
// the value Quantile reports for observations in the bucket.
func bucketUpper(i int) int64 {
	if i < subCount {
		return int64(i)
	}
	shift := uint(i>>SubBits) - 1
	low := uint64(i & (subCount - 1))
	return int64((subCount+low)<<shift + (1 << shift) - 1)
}

// Observe records one value.
func (h *Hist) Observe(v int64) { h.Add(v, 1) }

// Add records n observations of value v (n <= 0 is a no-op).
func (h *Hist) Add(v int64, n int64) {
	if n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	i := bucketIndex(v)
	if i >= len(h.counts) {
		grown := make([]int64, i+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[i] += n
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count += n
	h.sum += v * n
}

// Count returns the number of recorded observations.
func (h *Hist) Count() int64 { return h.count }

// Sum returns the sum of recorded values.
func (h *Hist) Sum() int64 { return h.sum }

// Min returns the smallest recorded value (0 when empty).
func (h *Hist) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value (0 when empty).
func (h *Hist) Max() int64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the q-th quantile (q in [0,1]) by nearest rank: the
// upper bound of the bucket holding the ceil(q·count)-th smallest
// observation, clamped to the observed min/max. The result r satisfies
// exact <= r <= exact·(1+RelativeError) for the matching nearest-rank
// exact percentile. Returns 0 when empty.
func (h *Hist) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			u := bucketUpper(i)
			if u > h.max {
				u = h.max
			}
			if u < h.min {
				u = h.min
			}
			return u
		}
	}
	return h.max
}

// Reset empties the histogram, keeping its bucket capacity.
func (h *Hist) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.count, h.sum, h.min, h.max = 0, 0, 0, 0
}

// Clone returns an independent copy (nil-safe: nil clones to nil).
func (h *Hist) Clone() *Hist {
	if h == nil {
		return nil
	}
	c := *h
	c.counts = append([]int64(nil), h.counts...)
	return &c
}
