package perm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randPerm(rng *rand.Rand, n int) Perm {
	return Perm(rng.Perm(n))
}

func TestIdentity(t *testing.T) {
	id := Identity(5)
	if !id.IsIdentity() {
		t.Fatal("identity not identity")
	}
	if id.Order() != 1 {
		t.Fatalf("identity order %d", id.Order())
	}
	if id.String() != "id" {
		t.Fatalf("identity string %q", id.String())
	}
}

func TestFromImages(t *testing.T) {
	if _, err := FromImages([]int{1, 2, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := FromImages([]int{0, 0, 1}); err == nil {
		t.Error("duplicate accepted")
	}
	if _, err := FromImages([]int{0, 3, 1}); err == nil {
		t.Error("out of range accepted")
	}
}

func TestComposeInverseProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		p, q, r := randPerm(rng, n), randPerm(rng, n), randPerm(rng, n)
		// Associativity.
		if !p.Compose(q).Compose(r).Equal(p.Compose(q.Compose(r))) {
			t.Fatal("composition not associative")
		}
		// Inverses.
		if !p.Compose(p.Inverse()).IsIdentity() || !p.Inverse().Compose(p).IsIdentity() {
			t.Fatal("inverse broken")
		}
		// Identity laws.
		id := Identity(n)
		if !p.Compose(id).Equal(p) || !id.Compose(p).Equal(p) {
			t.Fatal("identity law broken")
		}
	}
}

func TestOrderMatchesPowerIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(10)
		p := randPerm(rng, n)
		k := p.Order()
		q := Identity(n)
		for i := 0; i < k; i++ {
			q = q.Compose(p)
		}
		if !q.IsIdentity() {
			t.Fatalf("p^order != id for %v", p)
		}
		// No smaller positive power is the identity.
		q = Identity(n)
		for i := 1; i < k; i++ {
			q = q.Compose(p)
			if q.IsIdentity() {
				t.Fatalf("order of %v overestimated: %d", p, k)
			}
		}
	}
}

func TestCycles(t *testing.T) {
	p, _ := FromImages([]int{1, 2, 0, 4, 3, 5})
	cs := p.Cycles()
	if len(cs) != 3 {
		t.Fatalf("cycles %v", cs)
	}
	if p.String() != "(0 1 2)(3 4)" {
		t.Fatalf("string %q", p.String())
	}
	if p.Order() != 6 {
		t.Fatalf("order %d, want 6", p.Order())
	}
	if p.IsFixedPointFree() {
		t.Error("p has a fixed point")
	}
}

// stabilizerOrder counts the elements of g fixing point x.
func stabilizerOrder(g *Group, x int) int {
	count := 0
	for _, p := range g.Elements() {
		if p[x] == x {
			count++
		}
	}
	return count
}

func TestClosureCyclicGroup(t *testing.T) {
	n := 8
	rot := make(Perm, n)
	for i := range rot {
		rot[i] = (i + 1) % n
	}
	g, err := Closure(n, []Perm{rot}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Order() != n {
		t.Fatalf("cyclic group order %d, want %d", g.Order(), n)
	}
	if !g.IsTransitive() || !g.IsRegular() {
		t.Error("Z8 regular representation should be transitive and regular")
	}
}

func TestClosureDihedral(t *testing.T) {
	n := 6
	rot := make(Perm, n)
	refl := make(Perm, n)
	for i := range rot {
		rot[i] = (i + 1) % n
		refl[i] = (n - i) % n
	}
	g, err := Closure(n, []Perm{rot, refl}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Order() != 2*n {
		t.Fatalf("dihedral order %d, want %d", g.Order(), 2*n)
	}
	if g.IsRegular() {
		t.Error("dihedral action on vertices is not regular")
	}
	if s := stabilizerOrder(g, 0); s != 2 {
		t.Errorf("stabilizer size %d, want 2", s)
	}
}

func TestClosureSymmetricGroup(t *testing.T) {
	// S4 generated by a transposition and a 4-cycle.
	tr, _ := FromImages([]int{1, 0, 2, 3})
	cy, _ := FromImages([]int{1, 2, 3, 0})
	g, err := Closure(4, []Perm{tr, cy}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Order() != 24 {
		t.Fatalf("S4 order %d", g.Order())
	}
	if !g.Contains(Perm{3, 2, 1, 0}) {
		t.Error("S4 should contain the reversal")
	}
}

func TestClosureCap(t *testing.T) {
	tr, _ := FromImages([]int{1, 0, 2, 3, 4, 5, 6, 7})
	cy, _ := FromImages([]int{1, 2, 3, 4, 5, 6, 7, 0})
	if _, err := Closure(8, []Perm{tr, cy}, 100); err != ErrTooLarge {
		t.Fatalf("expected ErrTooLarge, got %v", err)
	}
}

func TestOrbits(t *testing.T) {
	// Permutation (0 1)(2 3 4), point 5 fixed.
	p, _ := FromImages([]int{1, 0, 3, 4, 2, 5})
	g, err := Closure(6, []Perm{p}, 0)
	if err != nil {
		t.Fatal(err)
	}
	orbits := OrbitsOf(6, g.Elements())
	if len(orbits) != 3 {
		t.Fatalf("orbits %v", orbits)
	}
	if len(orbits[0]) != 2 || len(orbits[1]) != 3 || len(orbits[2]) != 1 {
		t.Fatalf("orbit sizes wrong: %v", orbits)
	}
}

func TestGroupClosedUnderProductAndInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gens := []Perm{randPerm(rng, 6), randPerm(rng, 6)}
	g, err := Closure(6, gens, 0)
	if err != nil {
		t.Fatal(err)
	}
	els := g.Elements()
	for i := 0; i < len(els); i += 7 {
		for j := 0; j < len(els); j += 11 {
			if !g.Contains(els[i].Compose(els[j])) {
				t.Fatal("not closed under product")
			}
		}
		if !g.Contains(els[i].Inverse()) {
			t.Fatal("not closed under inverse")
		}
	}
	// Lagrange: orbit sizes divide group order for the transitive case is
	// not generally true, but |orbit| * |stab| = |G| always is.
	for x := 0; x < 6; x++ {
		orbitSize := 0
		seen := map[int]bool{}
		for _, p := range els {
			if !seen[p[x]] {
				seen[p[x]] = true
				orbitSize++
			}
		}
		if orbitSize*stabilizerOrder(g, x) != g.Order() {
			t.Fatalf("orbit-stabilizer violated at %d", x)
		}
	}
}

// TestKeyRoundTrip: keys are equal exactly when permutations are, also
// past 128 points, where an image takes more than one key byte, and for a
// permutation and its copy with two images swapped.
func TestKeyRoundTrip(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		p, q := randPerm(rng, n), randPerm(rng, n)
		r := append(Perm(nil), p...)
		i, j := rng.Intn(n), rng.Intn(n)
		r[i], r[j] = r[j], r[i]
		return (p.Key() == q.Key()) == p.Equal(q) && (p.Key() == r.Key()) == p.Equal(r)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestLessIsTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(8)
		p, q := randPerm(rng, n), randPerm(rng, n)
		switch {
		case p.Equal(q):
			if p.Less(q) || q.Less(p) {
				t.Fatal("equal perms compare unequal")
			}
		default:
			if p.Less(q) == q.Less(p) {
				t.Fatal("trichotomy violated")
			}
		}
	}
}
