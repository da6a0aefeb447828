// Package lazyrand is a rand.Source64 whose output is bit for bit the
// stream of math/rand's rand.NewSource(seed), but whose Seed costs O(1)
// instead of filling a 607-word register.
//
// The simulator seeds one generator per (agent, node) presentation and
// draws only a handful of values from it (a Perm of the node's degree), so
// math/rand's eager seeding — 1,841 steps of a modular LCG plus a 4.8 KB
// register fill — dominated its runs. Every seeded RNG of the module is
// built here (lazyrand.New), so there is one way to make one.
//
// # math/rand's generator
//
// rand.NewSource is an additive lagged-Fibonacci generator over a register
// vec[0..606] with two cursors, feed and tap, that start at 334 and 0. Each
// draw decrements both cursors (mod 607), stores vec[feed] + vec[tap] into
// vec[feed] and returns it. Seeding normalises the seed into [1, 2³¹−1)
// (0 becomes 89482311), runs the LCG x ← 48271·x mod (2³¹−1) for 20 warm-up
// steps, and then fills word i from the next three LCG values:
//
//	vec[i] = x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ cooked[i]
//
// where x[k] = 48271ᵏ·seed mod (2³¹−1) and cooked is a fixed 607-word table.
//
// # Building words on demand
//
// x[21+3i] = seed·jump[i] mod (2³¹−1) with jump[i] = 48271^(21+3i), so a
// table of jump powers builds any word in three modular multiplications
// (see word). In the first 607 draws the feed cursor visits every slot
// once, always before that draw overwrites it, so the feed operand of draw
// k < 607 is always a seeded word. The tap cursor visits slots 606, 605, …:
// for draws k < 273 it reads a seeded word too, and from draw 273 on it
// re-reads the slot written by draw k−273. A draw counter therefore says
// which operands still need building; after 607 draws the register is
// fully materialised and the source runs exactly as math/rand's. Since no
// draw before 273 reads a written word, the register itself is allocated
// only when a stream reaches draw 273, which first replays the 273 earlier
// writes into it (see materialize); a short stream never allocates it.
//
// # Recovering the seeding table
//
// cooked is not copied from the Go tree. init reads the first 607 outputs
// out[0..606] of rand.NewSource(1) and inverts the recurrence. Draw k reads
// feed slot f(k) = (333−k) mod 607 and tap slot 606−k:
//
//   - for k ≥ 273 the tap operand is out[k−273], so the seeded word
//     vec[f(k)] = out[k] − out[k−273]; this yields slots 0…60 and 334…606;
//   - for k < 273 the tap operand is the seeded word vec[606−k], already
//     known from the first case, so vec[333−k] = out[k] − vec[606−k].
//
// XORing each recovered word with its LCG part for seed 1 leaves cooked[i].
// The differential tests compare whole streams and Perm results against
// math/rand over hundreds of seeds.
package lazyrand

import "math/rand"

const (
	regLen  = 607       // register length of math/rand's generator
	regTap  = 273       // distance between its feed and tap cursors
	modulus = 1<<31 - 1 // prime modulus of its seeding LCG
	mult    = 48271     // multiplier of its seeding LCG
	warmup  = 20        // LCG steps math/rand discards before word 0
	zeroAlt = 89482311  // the seed math/rand substitutes for 0 mod modulus
	mask63  = 1<<63 - 1 // Int63 keeps the low 63 bits of Uint64
	feed0   = regLen - regTap
)

var (
	// jump[i] is 48271^(21+3i) mod (2³¹−1): it takes a normalised seed to
	// the first of the three LCG values word i consumes.
	jump [regLen]uint64
	// cooked is math/rand's seeding table, recovered by init.
	cooked [regLen]uint64
)

func init() {
	x := uint64(1)
	for i := 0; i <= warmup; i++ {
		x = x * mult % modulus
	}
	step := uint64(mult) * mult % modulus * mult % modulus
	for i := range jump {
		jump[i] = x
		x = x * step % modulus
	}

	ref := rand.NewSource(1).(rand.Source64)
	var out, vec [regLen]uint64
	for k := range out {
		out[k] = ref.Uint64()
	}
	for k := regTap; k < regLen; k++ {
		vec[(feed0-1-k+regLen)%regLen] = out[k] - out[k-regTap]
	}
	for k := 0; k < regTap; k++ {
		vec[feed0-1-k] = out[k] - vec[regLen-1-k]
	}
	for i := range cooked {
		cooked[i] = vec[i] ^ lcgWord(1, i)
	}
}

// lcgWord is the seed-dependent part of register word i: the three LCG
// values after jump[i] packed at bit offsets 40, 20 and 0.
func lcgWord(seed uint64, i int) uint64 {
	x := seed * jump[i] % modulus
	u := x << 40
	x = x * mult % modulus
	u ^= x << 20
	x = x * mult % modulus
	return u ^ x
}

// source is a rand.Source64 with math/rand's output stream and an O(1)
// Seed. Its zero value is not seeded; use newSource or call Seed first.
// Like rand.NewSource's result, a source is not safe for concurrent use.
type source struct {
	seed      uint64 // normalised seed, in [1, modulus)
	drawn     int    // draws since Seed, counted up to regLen
	tap, feed int
	// vec is the register, allocated by the first stream that reaches draw
	// regTap: no earlier draw reads back a written word, and most streams
	// end long before that.
	vec *[regLen]uint64
}

// newSource returns a source seeded with seed.
func newSource(seed int64) *source {
	s := new(source)
	s.Seed(seed)
	return s
}

// New returns a rand.Rand over a source seeded with seed. It is the drop-in
// for rand.New(rand.NewSource(seed)) and yields the same values; the Rand's
// Seed method re-seeds it in O(1).
func New(seed int64) *rand.Rand { return rand.New(newSource(seed)) }

// Seed re-seeds the source in O(1): register words are built when a draw
// first reads them.
func (s *source) Seed(seed int64) {
	seed %= modulus
	if seed < 0 {
		seed += modulus
	}
	if seed == 0 {
		seed = zeroAlt
	}
	s.seed = uint64(seed)
	s.drawn = 0
	s.tap, s.feed = 0, feed0
}

// word builds seeded register word i.
func (s *source) word(i int) uint64 { return lcgWord(s.seed, i) ^ cooked[i] }

// Uint64 returns the next 64-bit value of the stream.
func (s *source) Uint64() uint64 {
	tap, feed := s.tap-1, s.feed-1
	if tap < 0 {
		tap += regLen
	}
	if feed < 0 {
		feed += regLen
	}
	s.tap, s.feed = tap, feed
	// The steady state is tested first: a long stream spends nearly all its
	// draws there.
	if vec := s.vec; s.drawn >= regLen {
		x := vec[feed] + vec[tap]
		vec[feed] = x
		return x
	}
	if s.drawn < regTap {
		s.drawn++
		return s.word(feed) + s.word(tap)
	}
	if s.drawn == regTap {
		s.materialize()
	}
	x := s.word(feed) + s.vec[tap]
	s.vec[feed] = x
	s.drawn++
	return x
}

// materialize allocates the register on first use and writes into it the
// words that draws 0 … regTap−1 of the current stream stored, which the
// draws from regTap on read back through the tap cursor.
func (s *source) materialize() {
	if s.vec == nil {
		s.vec = new([regLen]uint64)
	}
	for k := 0; k < regTap; k++ {
		feed := feed0 - 1 - k
		s.vec[feed] = s.word(feed) + s.word(regLen-1-k)
	}
}

// Int63 returns the next value of the stream as a non-negative int64.
func (s *source) Int63() int64 { return int64(s.Uint64() & mask63) }
