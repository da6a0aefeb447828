package labeling

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/iso"
	"repro/internal/perm"
)

// This file keeps the code the package ran before it stopped listing
// groups, as differential references:
//   - the Theorem 2.1 check as it stood before the lazy search: close the
//     color-preserving automorphism group with perm.Closure, then scan its
//     sorted element list for the first φ ≠ id that preserves some
//     labeling;
//   - IsLabelPreserving as a comparison of fmt-built label-pair multisets
//     in per-node maps;
//   - LabelPreservingGroup as the closure filtered by that test;
//   - labelingPreservedBy over per-node maps.
//
// The lazy search must return the same witness, φ and labeling alike; the
// port-by-port test, the propagated group and the flat-array labeling
// must equal their references.

func refExistsSymmetricLabeling(t *testing.T, g *graph.Graph, colors []int) *SymmetricWitness {
	t.Helper()
	for _, phi := range refAut(t, g, colors) {
		if phi.IsIdentity() {
			continue
		}
		if l, ok := refLabelingPreservedBy(g, phi); ok {
			return &SymmetricWitness{Labeling: l, Phi: phi}
		}
	}
	return nil
}

// refAut lists the color-preserving automorphism group of (g, colors),
// sorted, by perm.Closure.
func refAut(t *testing.T, g *graph.Graph, colors []int) []perm.Perm {
	t.Helper()
	gens := iso.CanonicalSparse(iso.SparseFromGraph(g, colors)).AutoGens
	aut, err := perm.Closure(g.N(), gens, 1<<17)
	if err != nil {
		t.Fatal(err)
	}
	return aut.Elements()
}

// refIsLabelPreserving is the multiset form of IsLabelPreserving: for every
// pair of nodes, the multiset of (label-here, label-there) pairs on
// connecting edges is preserved; loops compare unordered label pairs.
func refIsLabelPreserving(g *graph.Graph, l graph.EdgeLabeling, colors []int, phi perm.Perm) bool {
	n := g.N()
	if len(phi) != n {
		return false
	}
	if colors != nil {
		for v := 0; v < n; v++ {
			if colors[phi[v]] != colors[v] {
				return false
			}
		}
	}
	for v := 0; v < n; v++ {
		if g.Deg(v) != g.Deg(phi[v]) {
			return false
		}
	}
	for v := 0; v < n; v++ {
		if !refSameLabelMultisets(g, l, v, phi[v], phi) {
			return false
		}
	}
	return true
}

// refSameLabelMultisets compares, for each neighbor w of v, the multiset of
// label pairs on v—w edges with that on phi(v)—phi(w) edges.
func refSameLabelMultisets(g *graph.Graph, l graph.EdgeLabeling, v, pv int, phi perm.Perm) bool {
	collect := func(x int) map[int][]string {
		out := make(map[int][]string)
		for p, h := range g.Ports(x) {
			if h.To == x {
				// Loop: count once (skip the higher port of the pair) with
				// an unordered label pair.
				if h.Twin < p {
					continue
				}
				a, b := l[x][p], l[x][h.Twin]
				if a > b {
					a, b = b, a
				}
				out[x] = append(out[x], fmt.Sprintf("L%d,%d", a, b))
				continue
			}
			out[h.To] = append(out[h.To], fmt.Sprintf("%d,%d", l[x][p], l[h.To][h.Twin]))
		}
		for _, v := range out {
			sort.Strings(v)
		}
		return out
	}
	mv, mp := collect(v), collect(pv)
	if len(mv) != len(mp) {
		return false
	}
	for w, labs := range mv {
		plabs, ok := mp[phi[w]]
		if !ok || len(plabs) != len(labs) {
			return false
		}
		for i := range labs {
			if labs[i] != plabs[i] {
				return false
			}
		}
	}
	return true
}

// refLabelPreservingGroup filters the sorted color-preserving automorphism
// group by refIsLabelPreserving.
func refLabelPreservingGroup(t *testing.T, g *graph.Graph, l graph.EdgeLabeling, colors []int) []perm.Perm {
	t.Helper()
	var out []perm.Perm
	for _, a := range refAut(t, g, colors) {
		if refIsLabelPreserving(g, l, colors, a) {
			out = append(out, a)
		}
	}
	return out
}

// refPortID identifies a port as (node, port index).
type refPortID struct{ v, p int }

// refLabelingPreservedBy is labelingPreservedBy over per-node maps.
func refLabelingPreservedBy(g *graph.Graph, phi perm.Perm) (graph.EdgeLabeling, bool) {
	n := g.N()
	// portIndex[v][w] = port index at v leading to w (simple graph).
	portIndex := make([]map[int]int, n)
	for v := 0; v < n; v++ {
		portIndex[v] = make(map[int]int, g.Deg(v))
		for p, h := range g.Ports(v) {
			portIndex[v][h.To] = p
		}
	}
	next := func(q refPortID) refPortID {
		w := g.Port(q.v, q.p).To
		return refPortID{phi[q.v], portIndex[phi[q.v]][phi[w]]}
	}
	l := make(graph.EdgeLabeling, n)
	for v := range l {
		l[v] = make([]int, g.Deg(v))
		for p := range l[v] {
			l[v][p] = -1
		}
	}
	label := 0
	for v := 0; v < n; v++ {
		for p := range g.Ports(v) {
			if l[v][p] != -1 {
				continue
			}
			// Walk the Π-orbit of (v, p).
			orbit := []refPortID{{v, p}}
			seen := map[refPortID]bool{{v, p}: true}
			for q := next(refPortID{v, p}); !seen[q]; q = next(q) {
				seen[q] = true
				orbit = append(orbit, q)
			}
			// Injectivity per node: the orbit must not contain two ports of
			// the same node.
			nodeSeen := make(map[int]bool)
			for _, q := range orbit {
				if nodeSeen[q.v] {
					return nil, false
				}
				nodeSeen[q.v] = true
			}
			for _, q := range orbit {
				if l[q.v][q.p] != -1 && l[q.v][q.p] != label {
					return nil, false
				}
				l[q.v][q.p] = label
			}
			label++
		}
	}
	return l, true
}

// eachGraph calls fn on every labeled simple graph on n nodes; mask holds
// its edges, bit i standing for the i-th pair (u, w), u < w, in order.
func eachGraph(n int, fn func(mask int, g *graph.Graph)) {
	var pairs [][2]int
	for u := 0; u < n; u++ {
		for w := u + 1; w < n; w++ {
			pairs = append(pairs, [2]int{u, w})
		}
	}
	for mask := 0; mask < 1<<len(pairs); mask++ {
		b := graph.NewBuilder(n)
		for i, p := range pairs {
			if mask&(1<<i) != 0 {
				b.AddEdge(p[0], p[1])
			}
		}
		fn(mask, b.Graph())
	}
}

// randomMultigraph returns a connected multigraph on n nodes: a random
// spanning tree plus extra edges between random ends, loops and parallel
// edges included.
func randomMultigraph(rng *rand.Rand, n, extra int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v, rng.Intn(v))
	}
	for i := 0; i < extra; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return b.Graph()
}

// smallLabelings returns the port labeling of g and four random ones, and
// smallColorings no black node and one, at node pick mod n.
func smallLabelings(g *graph.Graph, seed int64) []graph.EdgeLabeling {
	ls := []graph.EdgeLabeling{graph.PortLabeling(g)}
	for k := int64(0); k < 4; k++ {
		ls = append(ls, graph.RandomLabeling(g, seed*4+k))
	}
	return ls
}

func smallColorings(n, pick int) [][]int {
	return [][]int{nil, blacks(n, pick%n)}
}

// checkLabeled fails unless IsLabelPreserving agrees with the reference on
// every color-preserving automorphism of (g, colors) and on random
// permutations, and LabelPreservingGroup returns the reference group in
// the same order; it reports whether that group is nontrivial.
func checkLabeled(t *testing.T, name string, g *graph.Graph, l graph.EdgeLabeling, colors []int, rng *rand.Rand) bool {
	t.Helper()
	var want []perm.Perm
	for _, a := range refAut(t, g, colors) {
		ok := refIsLabelPreserving(g, l, colors, a)
		if IsLabelPreserving(g, l, colors, a) != ok {
			t.Fatalf("%s %v %v: IsLabelPreserving(%v) = %v, reference %v", name, l, colors, a, !ok, ok)
		}
		if ok {
			want = append(want, a)
		}
	}
	for k := 0; k < 4; k++ {
		phi := perm.Perm(rng.Perm(g.N()))
		if got, ok := IsLabelPreserving(g, l, colors, phi), refIsLabelPreserving(g, l, colors, phi); got != ok {
			t.Fatalf("%s %v %v: IsLabelPreserving(%v) = %v, reference %v", name, l, colors, phi, got, ok)
		}
	}
	got, err := LabelPreservingGroup(g, l, colors)
	if err != nil {
		t.Fatalf("%s %v %v: %v", name, l, colors, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %v %v: group %v, reference %v", name, l, colors, got, want)
	}
	return len(want) > 1
}

// TestLabelPreservingMatchesReferenceSmall runs every connected graph on
// at most 5 nodes under the port labeling and four random ones, with no
// black node and with one.
func TestLabelPreservingMatchesReferenceSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	instances, nontrivial := 0, 0
	for n := 1; n <= 5; n++ {
		eachGraph(n, func(mask int, g *graph.Graph) {
			if !g.IsConnected() {
				return
			}
			name := fmt.Sprintf("n=%d mask=%#x", n, mask)
			for _, l := range smallLabelings(g, int64(mask)) {
				for _, colors := range smallColorings(n, mask) {
					instances++
					if checkLabeled(t, name, g, l, colors, rng) {
						nontrivial++
					}
				}
			}
		})
	}
	// 1 + 1 + 4 + 38 + 728 connected graphs, 5 labelings, 2 colorings.
	if instances != 772*10 {
		t.Fatalf("%d instances", instances)
	}
	t.Logf("%d instances, %d with a nontrivial group", instances, nontrivial)
}

// TestLabelPreservingMatchesReferenceMultigraphs runs 200 random connected
// multigraphs on at most 7 nodes, loops and parallel edges included.
func TestLabelPreservingMatchesReferenceMultigraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	nontrivial := 0
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(7)
		g := randomMultigraph(rng, n, rng.Intn(2*n))
		for _, l := range []graph.EdgeLabeling{graph.PortLabeling(g), graph.RandomLabeling(g, int64(i))} {
			for _, colors := range smallColorings(n, i) {
				if checkLabeled(t, fmt.Sprintf("multigraph %d", i), g, l, colors, rng) {
					nontrivial++
				}
			}
		}
	}
	t.Logf("%d instances with a nontrivial group", nontrivial)
}

// TestLabelPreservingMatchesReferenceCayley runs the natural labelings of
// the Cayley fixtures, where the group is exactly the translations.
func TestLabelPreservingMatchesReferenceCayley(t *testing.T) {
	cays := []*group.Cayley{group.CompleteCayley(4), group.CompleteCayley(5)}
	for n := 3; n <= 8; n++ {
		cays = append(cays, group.CycleCayley(n))
	}
	for d := 2; d <= 4; d++ {
		cays = append(cays, group.HypercubeCayley(d))
	}
	for _, build := range []func() (*group.Cayley, error){
		func() (*group.Cayley, error) { return group.TorusCayley(3, 3) },
		func() (*group.Cayley, error) { return group.TorusCayley(3, 4) },
		func() (*group.Cayley, error) { return group.CCCCayley(3) },
		func() (*group.Cayley, error) { return group.WrappedButterflyCayley(3) },
		func() (*group.Cayley, error) { return group.StarCayley(4) },
		func() (*group.Cayley, error) { return group.PancakeCayley(4) },
	} {
		c, err := build()
		if err != nil {
			t.Fatal(err)
		}
		cays = append(cays, c)
	}
	rng := rand.New(rand.NewSource(23))
	for i, c := range cays {
		n := c.G.N()
		for _, colors := range smallColorings(n, i) {
			// With one black node no translation but the identity is left.
			if got := checkLabeled(t, c.Group.Name(), c.G, CayleyNaturalLabeling(c), colors, rng); got != (colors == nil) {
				t.Errorf("%s %v: nontrivial group %v, want %v", c.Group.Name(), colors, got, colors == nil)
			}
		}
	}
}

// TestLabelingPreservedByMatchesReference builds the witness labeling of
// every automorphism of every connected simple graph on at most 5 nodes
// and of the vertex-transitive families, and requires the reference's
// labeling, byte for byte, or its refusal.
func TestLabelingPreservedByMatchesReference(t *testing.T) {
	gs := map[string]*graph.Graph{
		"petersen": graph.Petersen(), "Q3": graph.Hypercube(3), "C8": graph.Cycle(8),
		"prism4": graph.Prism(4), "K3,3": graph.CompleteBipartite(3, 3), "CCC3": graph.CCC(3),
	}
	for n := 1; n <= 5; n++ {
		eachGraph(n, func(mask int, g *graph.Graph) {
			if g.IsConnected() {
				gs[fmt.Sprintf("n=%d mask=%#x", n, mask)] = g
			}
		})
	}
	automorphisms, witnesses := 0, 0
	for name, g := range gs {
		for _, phi := range refAut(t, g, nil) {
			automorphisms++
			l, ok := labelingPreservedBy(g, phi)
			wl, wok := refLabelingPreservedBy(g, phi)
			if ok != wok || ok && !reflect.DeepEqual(l, wl) {
				t.Fatalf("%s φ=%v: labeling %v %v, reference %v %v", name, phi, l, ok, wl, wok)
			}
			if ok {
				witnesses++
			}
		}
	}
	t.Logf("%d automorphisms, %d with a preserved labeling", automorphisms, witnesses)
}

// checkWitness fails unless ExistsSymmetricLabeling returns the reference
// witness of (g, colors); it reports whether there is one.
func checkWitness(t *testing.T, name string, g *graph.Graph, colors []int) bool {
	t.Helper()
	got, err := ExistsSymmetricLabeling(g, colors, 0)
	if err != nil {
		t.Fatalf("%s %v: %v", name, colors, err)
	}
	want := refExistsSymmetricLabeling(t, g, colors)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %v: witness %+v, reference %+v", name, colors, got, want)
	}
	return want != nil
}

// TestWitnessMatchesReferenceSmall runs every labeled graph on at most 5
// nodes with every home set. The disconnected ones (2K2, K3+K2 and the
// rest) take the search's other branch: no gcd short cut, and every
// automorphism of 0's orbit tried, fixed points and all.
func TestWitnessMatchesReferenceSmall(t *testing.T) {
	instances, witnesses, disconnected := 0, 0, 0
	for n := 1; n <= 5; n++ {
		eachGraph(n, func(mask int, g *graph.Graph) {
			for homes := 1; homes < 1<<n; homes++ {
				colors := make([]int, n)
				for v := range colors {
					colors[v] = homes >> v & 1
				}
				instances++
				if !g.IsConnected() {
					disconnected++
				}
				if checkWitness(t, fmt.Sprintf("n=%d mask=%#x", n, mask), g, colors) {
					witnesses++
				}
			}
		})
	}
	// Labeled graphs on 1..5 nodes: 1, 2, 8, 64 and 1,024, of which 1, 1,
	// 4, 38 and 728 are connected, each with 2ⁿ − 1 home sets.
	if instances != 1+6+56+960+31744 || disconnected != 3+28+390+9176 {
		t.Fatalf("%d instances, %d disconnected", instances, disconnected)
	}
	t.Logf("%d instances, %d disconnected, %d with a witness", instances, disconnected, witnesses)
}

// TestWitnessMatchesReferenceFamilies runs the vertex-transitive families
// and their near misses with random home sets.
func TestWitnessMatchesReferenceFamilies(t *testing.T) {
	fams := map[string]*graph.Graph{
		"petersen": graph.Petersen(), "moebius-kantor": graph.MoebiusKantor(),
		"CCC3": graph.CCC(3), "star4": graph.StarGraph(4), "pancake4": graph.Pancake(4),
		"wbf3": graph.WrappedButterfly(3),
	}
	for n := 3; n <= 30; n++ {
		fams[fmt.Sprintf("C%d", n)] = graph.Cycle(n)
		fams[fmt.Sprintf("prism%d", n)] = graph.Prism(n)
	}
	for d := 1; d <= 5; d++ {
		fams[fmt.Sprintf("Q%d", d)] = graph.Hypercube(d)
	}
	for n := 2; n <= 8; n++ {
		fams[fmt.Sprintf("K%d", n)] = graph.Complete(n)
	}
	for a := 1; a <= 4; a++ {
		for b := a; b <= 4; b++ {
			fams[fmt.Sprintf("K%d,%d", a, b)] = graph.CompleteBipartite(a, b)
		}
	}
	for a := 3; a <= 6; a++ {
		for b := a; b <= 6; b++ {
			fams[fmt.Sprintf("T%dx%d", a, b)] = graph.Torus(a, b)
		}
	}
	for n := 5; n <= 16; n++ {
		fams[fmt.Sprintf("circ%d{1,2}", n)] = graph.Circulant(n, []int{1, 2})
		if n >= 6 {
			fams[fmt.Sprintf("circ%d{1,3}", n)] = graph.Circulant(n, []int{1, 3})
		}
	}
	for i := 0; i < 30; i++ {
		fams[fmt.Sprintf("RR3-%d", i)] = graph.RandomRegular(8+2*(i%9), 3, int64(i+1))
	}
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(11))
	for _, name := range names {
		g := fams[name]
		n := g.N()
		for k := 0; k < 3; k++ {
			colors := make([]int, n)
			for _, h := range rng.Perm(n)[:1+rng.Intn(min(4, n))] {
				colors[h] = 1
			}
			checkWitness(t, name, g, colors)
		}
		// The antipodal-style placement with a large gcd: every
		// (n/d)-th node for the smallest divisor d > 1 of n.
		for d := 2; d <= n; d++ {
			if n%d == 0 {
				colors := make([]int, n)
				for v := 0; v < n; v += n / d {
					colors[v] = 1
				}
				checkWitness(t, name+" spread", g, colors)
				break
			}
		}
	}
}

// FuzzLabelPreserving decodes bytes into a connected multigraph on at most
// 7 nodes, loops and parallel edges included: the first byte picks n, the
// next n−1 bytes a spanning tree (node v hangs off node b mod v), and the
// byte pairs after them up to 3n extra edges. seed picks a random
// labeling, a black node or none, and the random permutations checkLabeled
// tries besides every color-preserving automorphism. IsLabelPreserving and
// LabelPreservingGroup must equal their references.
func FuzzLabelPreserving(f *testing.F) {
	for _, seed := range []struct {
		data []byte
		seed int64
	}{
		{[]byte{0}, 1}, {[]byte{1, 0, 0, 0}, 2}, {[]byte{3, 0, 1, 2, 3, 3}, 3},
		{[]byte{5, 0, 1, 2, 3, 4, 5, 0, 0, 1, 1}, 4}, {[]byte{6, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6}, 7},
	} {
		f.Add(seed.data, seed.seed)
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%7
		data = data[1:]
		b := graph.NewBuilder(n)
		for v := 1; v < n; v++ {
			u := 0
			if len(data) > 0 {
				u, data = int(data[0])%v, data[1:]
			}
			b.AddEdge(v, u)
		}
		for i := 0; i+1 < len(data) && i < 6*n; i += 2 {
			b.AddEdge(int(data[i])%n, int(data[i+1])%n)
		}
		g := b.Graph()
		rng := rand.New(rand.NewSource(seed))
		l := graph.RandomLabeling(g, seed)
		colors := smallColorings(n, rng.Intn(n))[rng.Intn(2)]
		checkLabeled(t, fmt.Sprintf("%v", g), g, l, colors, rng)
	})
}
