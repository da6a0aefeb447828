package graph

import (
	"testing"
	"testing/quick"
)

func TestPortLabelingValid(t *testing.T) {
	for _, g := range []*Graph{Path(4), Cycle(5), Star(3), Fig2c(), Petersen()} {
		l := PortLabeling(g)
		if err := l.Validate(g); err != nil {
			t.Errorf("%v: %v", g, err)
		}
		for v := 0; v < g.N(); v++ {
			for p := range l[v] {
				if l[v][p] != p {
					t.Fatalf("port labeling should be the identity, got l[%d][%d]=%d", v, p, l[v][p])
				}
			}
		}
	}
}

func TestRandomLabelingValidAndDeterministic(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		g := Petersen()
		l1 := RandomLabeling(g, seed)
		l2 := RandomLabeling(g, seed)
		if l1.Validate(g) != nil {
			return false
		}
		for v := range l1 {
			for p := range l1[v] {
				if l1[v][p] != l2[v][p] {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestOrientedCycleLabeling(t *testing.T) {
	for _, n := range []int{3, 4, 6, 11} {
		g := Cycle(n)
		l := OrientedCycleLabeling(n)
		if err := l.Validate(g); err != nil {
			t.Fatalf("C%d: %v", n, err)
		}
		for v := 0; v < n; v++ {
			for p, h := range g.Ports(v) {
				want := (v + 1) % n
				if l[v][p] == 2 {
					want = (v + n - 1) % n
				}
				if h.To != want {
					t.Fatalf("C%d: label %d at %d leads to %d, want %d", n, l[v][p], v, h.To, want)
				}
			}
		}
	}
}

func TestLabelingValidateRejects(t *testing.T) {
	g := Path(3)
	// Wrong node count.
	if err := (EdgeLabeling{{0}}).Validate(g); err == nil {
		t.Error("short labeling accepted")
	}
	// Wrong degree.
	if err := (EdgeLabeling{{0, 1}, {0, 1}, {0}}).Validate(g); err == nil {
		t.Error("wrong-arity labeling accepted")
	}
	// Duplicate label at a node.
	if err := (EdgeLabeling{{0}, {1, 1}, {0}}).Validate(g); err == nil {
		t.Error("duplicate labels accepted")
	}
	// Valid one.
	if err := (EdgeLabeling{{7}, {3, 9}, {2}}).Validate(g); err != nil {
		t.Errorf("valid labeling rejected: %v", err)
	}
}

func TestLabelingClone(t *testing.T) {
	g := Cycle(4)
	l := PortLabeling(g)
	c := l.Clone()
	c[0][0] = 99
	if l[0][0] == 99 {
		t.Error("clone aliases the original")
	}
}

func TestNetworkGeneratorsInPackage(t *testing.T) {
	st := StarGraph(3)
	if st.N() != 6 || st.M() != 6 {
		t.Errorf("ST(3): n=%d m=%d, want 6,6", st.N(), st.M())
	}
	pk := Pancake(3)
	if pk.N() != 6 || pk.M() != 6 {
		t.Errorf("Pancake(3): n=%d m=%d, want 6,6", pk.N(), pk.M())
	}
	wb := WrappedButterfly(3)
	if !wb.IsConnected() {
		t.Error("WB(3) disconnected")
	}
	if !st.IsConnected() || !pk.IsConnected() {
		t.Error("permutation networks disconnected")
	}
}

func TestGraphString(t *testing.T) {
	if s := Cycle(5).String(); s != "graph(n=5, m=5)" {
		t.Errorf("String() = %q", s)
	}
}
