package group

import (
	"testing"
)

func TestCyclic(t *testing.T) {
	g := Cyclic(6)
	if g.Order() != 6 || !g.IsAbelian() {
		t.Fatal("Z6 basics wrong")
	}
	if g.Mul(4, 5) != 3 || g.Inv(2) != 4 || g.Inv(0) != 0 {
		t.Fatal("Z6 arithmetic wrong")
	}
	if g.ElemOrder(2) != 3 || g.ElemOrder(1) != 6 || g.ElemOrder(3) != 2 {
		t.Fatal("Z6 element orders wrong")
	}
	if !g.Generates([]int{1}) || g.Generates([]int{2}) || !g.Generates([]int{2, 3}) {
		t.Fatal("Z6 generation wrong")
	}
}

func TestDirect(t *testing.T) {
	g := Direct(Cyclic(2), Cyclic(3))
	if g.Order() != 6 || !g.IsAbelian() {
		t.Fatal("Z2xZ3 basics wrong")
	}
	// Z2 x Z3 is cyclic of order 6: some element has order 6.
	found := false
	for a := 0; a < 6; a++ {
		if g.ElemOrder(a) == 6 {
			found = true
		}
	}
	if !found {
		t.Fatal("Z2xZ3 should contain an element of order 6")
	}
}

func TestElementaryAbelian(t *testing.T) {
	g := ElementaryAbelian2(3)
	if g.Order() != 8 || !g.IsAbelian() {
		t.Fatal("Z2^3 basics wrong")
	}
	for a := 1; a < 8; a++ {
		if g.ElemOrder(a) != 2 {
			t.Fatalf("element %d has order %d, want 2", a, g.ElemOrder(a))
		}
	}
}

func TestDihedral(t *testing.T) {
	g := Dihedral(4)
	if g.Order() != 8 || g.IsAbelian() {
		t.Fatal("D4 basics wrong")
	}
	// All reflections have order 2.
	for k := 0; k < 4; k++ {
		if g.ElemOrder(4+k) != 2 {
			t.Fatalf("reflection sr%d has order %d", k, g.ElemOrder(4+k))
		}
	}
	if g.ElemOrder(1) != 4 {
		t.Fatalf("rotation r1 has order %d, want 4", g.ElemOrder(1))
	}
	// s r s = r^{-1}: s=index 4, r=index 1.
	srs := g.Mul(g.Mul(4, 1), 4)
	if srs != g.Inv(1) {
		t.Fatalf("dihedral relation fails: srs = %d, want %d", srs, g.Inv(1))
	}
}

func TestSymmetric(t *testing.T) {
	g := Symmetric(4)
	if g.Order() != 24 || g.IsAbelian() {
		t.Fatal("S4 basics wrong")
	}
	// Count elements of order 2: 6 transpositions + 3 double transpositions.
	count := 0
	for a := 1; a < 24; a++ {
		if g.ElemOrder(a) == 2 {
			count++
		}
	}
	if count != 9 {
		t.Fatalf("S4 involution count %d, want 9", count)
	}
}

func TestFromTableRejectsInvalid(t *testing.T) {
	// Non-associative magma on 3 elements with identity.
	bad := [][]int{
		{0, 1, 2},
		{1, 2, 2},
		{2, 2, 1},
	}
	if _, err := FromTable("bad", bad, nil); err == nil {
		t.Error("non-group table accepted")
	}
	// Identity not at 0.
	bad2 := [][]int{
		{1, 0},
		{0, 1},
	}
	if _, err := FromTable("bad2", bad2, nil); err == nil {
		t.Error("table without identity at 0 accepted")
	}
}

func TestGroupAxiomsHoldForConstructors(t *testing.T) {
	gs := []*Group{
		Cyclic(1), Cyclic(7), Dihedral(3), Dihedral(5), Symmetric(3),
		ElementaryAbelian2(2), Direct(Cyclic(2), Cyclic(4)),
	}
	for _, g := range gs {
		n := g.Order()
		// Re-validate through FromTable.
		mul := make([][]int, n)
		for a := 0; a < n; a++ {
			mul[a] = make([]int, n)
			for b := 0; b < n; b++ {
				mul[a][b] = g.Mul(a, b)
			}
		}
		if _, err := FromTable(g.Name(), mul, nil); err != nil {
			t.Errorf("%s: constructor produced invalid group: %v", g.Name(), err)
		}
		// Lagrange for cyclic subgroups.
		for a := 0; a < n; a++ {
			if n%g.ElemOrder(a) != 0 {
				t.Errorf("%s: element order %d does not divide %d", g.Name(), g.ElemOrder(a), n)
			}
		}
	}
}

// ElemOrder returns the multiplicative order of a.
func (g *Group) ElemOrder(a int) int {
	k, x := 1, a
	for x != 0 {
		x = g.mul[x][a]
		k++
	}
	return k
}

// IsAbelian reports whether the group is commutative.
func (g *Group) IsAbelian() bool {
	n := g.Order()
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if g.mul[a][b] != g.mul[b][a] {
				return false
			}
		}
	}
	return true
}
