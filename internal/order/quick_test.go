package order

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/iso"
)

// The ordered class structure is a partition: every node in exactly one
// class, ClassOf consistent, black classes first, each color group sorted
// by ≺ (hair keys, or smallest canonical position), and GCD dividing every
// class size.
func TestQuickOrderedIsConsistentPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		g := graph.RandomConnected(n, rng.Intn(6), rng.Int63())
		colors := make([]int, n)
		for k := 0; k <= rng.Intn(3); k++ {
			colors[rng.Intn(n)] = 1
		}
		for _, ord := range []Ordering{Direct, Hairs} {
			o := ComputeAndOrder(g, colors, ord)
			seen := make([]bool, n)
			for i, cl := range o.Classes {
				if len(cl) == 0 {
					return false
				}
				for _, v := range cl {
					if seen[v] || o.ClassOf[v] != i {
						return false
					}
					seen[v] = true
					// Classes are color-pure and blacks come first.
					if (colors[v] == 1) != (i < o.NumBlack) {
						return false
					}
				}
			}
			for _, s := range seen {
				if !s {
					return false
				}
			}
			// Sorted by ≺ within each color group.
			for i := 1; i < len(o.Classes); i++ {
				sameGroup := (i < o.NumBlack) == (i-1 < o.NumBlack)
				sorted := o.Keys == nil && leastPosition(o, i-1) < leastPosition(o, i) ||
					o.Keys != nil && o.Keys[i-1].Compare(o.Keys[i]) <= 0
				if sameGroup && !sorted {
					return false
				}
			}
			// No ties between distinct equivalence classes (Lemma 3.1).
			if o.Tied {
				return false
			}
			for _, cl := range o.Classes {
				if len(cl)%o.GCD() != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Canonical words of surroundings agree across equivalent nodes and differ
// across inequivalent ones (the two halves of Lemma 3.1).
func TestQuickSurroundingKeysCharacterizeClasses(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		g := graph.RandomConnected(n, rng.Intn(4), rng.Int63())
		colors := make([]int, n)
		colors[rng.Intn(n)] = 1
		o := ComputeAndOrder(g, colors, Direct)
		words := make([]string, n)
		for v := 0; v < n; v++ {
			words[v] = string(iso.CanonicalWord(Surrounding(g, colors, v)))
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				same := words[u] == words[v]
				if same != (o.ClassOf[u] == o.ClassOf[v]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// leastPosition returns the smallest canonical position of class i's
// members.
func leastPosition(o *Ordered, i int) int {
	least := len(o.ClassOf)
	for _, v := range o.Classes[i] {
		least = min(least, o.Canon.Perm[v])
	}
	return least
}
