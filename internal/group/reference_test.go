package group

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/iso"
	"repro/internal/perm"
)

// This file keeps the Cayley test as it stood before the lazy search, as
// the differential reference: close the automorphism group with
// perm.Closure (capped at 2¹⁷ elements), then scan its sorted element list
// for a regular subgroup. The lazy search must find the same subgroup,
// element by element, wherever the reference decides. It keeps the
// Sabidussi construction as it stood before it stopped listing Γ, too:
// the closure partitioned into cosets by the image of u₀, and the quotient
// found by an all-pairs scan of the cosets.

// refRegular is the reference Cayley test on g: the regular subgroup (nil
// when g is not a Cayley graph), or decided == false when the closure
// exceeded maxAut elements.
func refRegular(g *graph.Graph, maxAut int) (reg []perm.Perm, decided bool) {
	n := g.N()
	if !g.IsConnected() {
		return nil, true
	}
	if ok, _ := g.IsRegular(); !ok {
		return nil, true
	}
	if n == 1 {
		return []perm.Perm{perm.Identity(1)}, true
	}
	gens := iso.CanonicalSparse(iso.SparseFromGraph(g, nil)).AutoGens
	aut, err := perm.Closure(n, gens, maxAut)
	if err != nil {
		return nil, false
	}
	if !aut.IsTransitive() {
		return nil, true
	}
	return refFindRegularSubgroup(n, aut), true
}

// adjacencyKey identifies the labeled multigraph g: the sorted multiset of
// its neighbors at every node.
func adjacencyKey(g *graph.Graph) string {
	rows := make([][]int, g.N())
	for v := range rows {
		for _, h := range g.Ports(v) {
			rows[v] = append(rows[v], h.To)
		}
		sort.Ints(rows[v])
	}
	return fmt.Sprint(rows)
}

func refFindRegularSubgroup(n int, aut *perm.Group) []perm.Perm {
	cand := make([][]perm.Perm, n)
	cand[0] = []perm.Perm{perm.Identity(n)}
	for _, a := range aut.Elements() {
		if !a.IsIdentity() && a.IsFixedPointFree() {
			cand[a[0]] = append(cand[a[0]], a)
		}
	}
	for v := 1; v < n; v++ {
		if len(cand[v]) == 0 {
			return nil
		}
	}
	chosen := make([]perm.Perm, n)
	chosen[0] = perm.Identity(n)
	if refSearch(n, cand, chosen) {
		return chosen
	}
	return nil
}

func refSearch(n int, cand [][]perm.Perm, chosen []perm.Perm) bool {
	v := -1
	for u := 1; u < n; u++ {
		if chosen[u] == nil {
			v = u
			break
		}
	}
	if v == -1 {
		return true
	}
	for _, c := range cand[v] {
		assigned := map[int]perm.Perm{v: c}
		if refPropagate(n, chosen, assigned) {
			for u, p := range assigned {
				chosen[u] = p
			}
			if refSearch(n, cand, chosen) {
				return true
			}
			for u := range assigned {
				chosen[u] = nil
			}
		}
	}
	return false
}

func refPropagate(n int, chosen []perm.Perm, assigned map[int]perm.Perm) bool {
	get := func(u int) perm.Perm {
		if p := chosen[u]; p != nil {
			return p
		}
		return assigned[u]
	}
	queue := make([]int, 0, len(assigned))
	for u := range assigned {
		queue = append(queue, u)
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		pu := get(u)
		var known []int
		for w := 0; w < n; w++ {
			if get(w) != nil {
				known = append(known, w)
			}
		}
		try := func(p perm.Perm) bool {
			if ex := get(p[0]); ex != nil {
				return ex.Equal(p)
			}
			assigned[p[0]] = p
			queue = append(queue, p[0])
			return true
		}
		if !try(pu.Inverse()) {
			return false
		}
		for _, w := range known {
			pw := get(w)
			if !try(pu.Compose(pw)) || !try(pw.Compose(pu)) {
				return false
			}
		}
	}
	return true
}

// refTranslationCount is the reference (Cayley, d) of a bicolored graph:
// canonical relabeling, the reference subgroup, the abstract group and its
// translation classes, as elect computed them before the lazy search.
func refTranslationCount(t *testing.T, cg *graph.Graph, cweight []int, reg []perm.Perm) int {
	t.Helper()
	rec := &Recognition{IsCayley: true, Regular: reg}
	cay, err := rec.RecognizedCayley(cg)
	if err != nil {
		t.Fatal(err)
	}
	_, d := cay.TranslationClassesWeighted(cweight)
	return d
}

// oldCap is the closure cap the Cayley test had before the lazy search.
const oldCap = 1 << 17

// checkAgainstReference fails unless RecognizeCtx decides g as the
// reference does, with the identical regular subgroup. The reference lists
// at most maxAut automorphisms; where it cannot, only RecognizeCtx's error
// is checked.
func checkAgainstReference(t *testing.T, name string, g *graph.Graph, maxAut int) (got *Recognition) {
	t.Helper()
	want, decided := refRegular(g, maxAut)
	got, err := RecognizeCtx(context.Background(), g)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !decided {
		return got
	}
	if got.IsCayley != (want != nil) {
		t.Fatalf("%s: Cayley %v, reference %v", name, got.IsCayley, want != nil)
	}
	for v := range want {
		if !got.Regular[v].Equal(want[v]) {
			t.Fatalf("%s: R[%d] = %v, reference %v", name, v, got.Regular[v], want[v])
		}
	}
	return got
}

// TestRegularSubgroupMatchesReferenceSmall runs every connected regular
// labeled graph on at most 6 nodes.
func TestRegularSubgroupMatchesReferenceSmall(t *testing.T) {
	graphs, cayley := 0, 0
	for n := 1; n <= 6; n++ {
		var pairs [][2]int
		for u := 0; u < n; u++ {
			for w := u + 1; w < n; w++ {
				pairs = append(pairs, [2]int{u, w})
			}
		}
		for mask := 0; mask < 1<<len(pairs); mask++ {
			g := fromMask(n, pairs, mask)
			if ok, _ := g.IsRegular(); !ok || !g.IsConnected() {
				continue
			}
			graphs++
			if checkAgainstReference(t, fmt.Sprintf("n=%d mask=%#x", n, mask), g, oldCap).IsCayley {
				cayley++
			}
		}
	}
	// 1 + 1 + 1 + (3 + 1) + (12 + 1) + (60 + 70 + 15 + 1): every one is a
	// Cayley graph, so the relabeled families below carry the negatives.
	if graphs != 166 || cayley != 166 {
		t.Fatalf("%d connected regular labeled graphs on <= 6 nodes, %d Cayley; want 166, 166", graphs, cayley)
	}
}

func fromMask(n int, pairs [][2]int, mask int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i, p := range pairs {
		if mask&(1<<i) != 0 {
			b.AddEdge(p[0], p[1])
		}
	}
	return b.Graph()
}

// TestRegularSubgroupMatchesReferenceRelabeled runs random relabelings of
// vertex-transitive graphs on 7 to 16 nodes.
func TestRegularSubgroupMatchesReferenceRelabeled(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	relabelings := 10
	if testing.Short() {
		relabelings = 3
	}
	for name, g := range map[string]*graph.Graph{
		"C7": graph.Cycle(7), "K7": graph.Complete(7), "Q3": graph.Hypercube(3),
		"K4,4": graph.CompleteBipartite(4, 4), "T3x3": graph.Torus(3, 3),
		"petersen": graph.Petersen(), "prism5": graph.Prism(5),
		"circ12{1,3}": graph.Circulant(12, []int{1, 3}), "circ11{1,2}": graph.Circulant(11, []int{1, 2}),
		"prism6": graph.Prism(6), "T3x4": graph.Torus(3, 4), "Q4": graph.Hypercube(4),
		"moebius-kantor": graph.MoebiusKantor(),
	} {
		for i := 0; i < relabelings; i++ {
			h, err := g.Relabel(rng.Perm(g.N()))
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, fmt.Sprintf("%s relabeling %d", name, i), h, oldCap)
		}
	}
}

// familyList is the differential corpus: vertex-transitive families and
// near misses on up to 48 nodes.
func familyList() map[string]*graph.Graph {
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
	return fams
}

// refSabidussi returns the left cosets {φ : φ(u₀) = v} of H = stab(u₀),
// u₀ = 0, each sorted, and the quotient that joins cosets v and w iff some
// a in coset v and b in coset w have a⁻¹b ∈ S, the automorphisms carrying
// u₀ to a neighbor.
func refSabidussi(t *testing.T, g *graph.Graph) (cosets [][]perm.Perm, quotient *graph.Graph) {
	t.Helper()
	n := g.N()
	gens := iso.CanonicalSparse(iso.SparseFromGraph(g, nil)).AutoGens
	aut, err := perm.Closure(n, gens, 1<<17)
	if err != nil {
		t.Fatal(err)
	}
	cosets = make([][]perm.Perm, n)
	for _, p := range aut.Elements() {
		cosets[p[0]] = append(cosets[p[0]], p)
	}
	inS := make(map[string]bool)
	for _, nb := range g.NeighborSet(0) {
		for _, p := range cosets[nb] {
			inS[p.Key()] = true
		}
	}
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for w := v + 1; w < n; w++ {
			if refCosetAdjacent(cosets[v], cosets[w], inS) {
				b.AddEdge(v, w)
			}
		}
	}
	return cosets, b.Graph()
}

func refCosetAdjacent(cv, cw []perm.Perm, inS map[string]bool) bool {
	for _, a := range cv {
		ai := a.Inverse()
		for _, b := range cw {
			// a⁻¹∘b (apply b, then a⁻¹): carries u₀ to a⁻¹(w); the edge
			// exists iff that lands on a neighbor of u₀, i.e. a⁻¹∘b ∈ S.
			if inS[b.Compose(ai).Key()] {
				return true
			}
		}
	}
	return false
}

// TestSabidussiMatchesReference requires H and every coset a_v·H to equal
// the closure's, as sets, and the quotient to equal the all-pairs scan's,
// on vertex-transitive graphs, Cayley or not.
func TestSabidussiMatchesReference(t *testing.T) {
	fams := map[string]*graph.Graph{
		"Q3": graph.Hypercube(3), "Q4": graph.Hypercube(4),
		"K3,3": graph.CompleteBipartite(3, 3), "K4,4": graph.CompleteBipartite(4, 4),
		"petersen": graph.Petersen(), "moebius-kantor": graph.MoebiusKantor(),
		"T3x4": graph.Torus(3, 4), "CCC3": graph.CCC(3),
		"C8{1,2}": graph.Circulant(8, []int{1, 2}), "paley13": graph.Circulant(13, []int{1, 3, 4}),
		"star4": graph.StarGraph(4), "pancake4": graph.Pancake(4),
	}
	for n := 3; n <= 10; n++ {
		fams[fmt.Sprintf("C%d", n)] = graph.Cycle(n)
	}
	for n := 1; n <= 6; n++ {
		fams[fmt.Sprintf("K%d", n)] = graph.Complete(n)
	}
	for n := 3; n <= 6; n++ {
		fams[fmt.Sprintf("prism%d", n)] = graph.Prism(n)
	}
	for _, name := range sortedNames(fams) {
		g := fams[name]
		s, err := SabidussiQuotient(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cosets, quotient := refSabidussi(t, g)
		if !reflect.DeepEqual(s.Stabilizer, cosets[0]) {
			t.Fatalf("%s: H = %v, reference %v", name, s.Stabilizer, cosets[0])
		}
		for v, a := range s.Reps {
			coset := make([]perm.Perm, len(s.Stabilizer))
			for i, h := range s.Stabilizer {
				coset[i] = h.Compose(a)
			}
			sort.Slice(coset, func(i, j int) bool { return coset[i].Less(coset[j]) })
			if !reflect.DeepEqual(coset, cosets[v]) {
				t.Fatalf("%s: coset %d = %v, reference %v", name, v, coset, cosets[v])
			}
		}
		if adjacencyKey(s.Quotient) != adjacencyKey(quotient) {
			t.Fatalf("%s: quotient %v, reference %v", name, s.Quotient, quotient)
		}
	}
}

// sortedNames returns the keys of fams in a fixed order.
func sortedNames(fams map[string]*graph.Graph) []string {
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestTranslationCountMatchesReferenceFamilies checks (Cayley, d) on the
// family list with random home sets, computed as elect computes them: on
// the graph relabeled canonically with its homes.
func TestTranslationCountMatchesReferenceFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	homeSets := 3
	if testing.Short() {
		homeSets = 1
	}
	type refResult struct {
		reg     []perm.Perm
		decided bool
	}
	memo := make(map[string]refResult)
	fams := familyList()
	for _, name := range sortedNames(fams) {
		g := fams[name]
		n := g.N()
		for k := 0; k < homeSets; k++ {
			weight := make([]int, n)
			for _, h := range rng.Perm(n)[:1+rng.Intn(min(4, n))] {
				weight[h] = 1
			}
			canon := iso.CanonicalSparse(iso.SparseFromGraph(g, weight)).Perm
			cg, err := g.Relabel(canon)
			if err != nil {
				t.Fatal(err)
			}
			cweight := make([]int, n)
			for v, w := range weight {
				cweight[canon[v]] = w
			}
			key := adjacencyKey(cg)
			ref, ok := memo[key]
			if !ok {
				ref.reg, ref.decided = refRegular(cg, oldCap)
				memo[key] = ref
			}
			got, err := RecognizeCtx(context.Background(), cg)
			if err != nil {
				t.Fatalf("%s %v: %v", name, weight, err)
			}
			if !ref.decided {
				continue
			}
			if got.IsCayley != (ref.reg != nil) {
				t.Fatalf("%s %v: Cayley %v, reference %v", name, weight, got.IsCayley, ref.reg != nil)
			}
			if !got.IsCayley {
				continue
			}
			d := 0
			for _, r := range got.Regular {
				if weightsPreserved(r, cweight) {
					d++
				}
			}
			if want := refTranslationCount(t, cg, cweight, ref.reg); d != want {
				t.Fatalf("%s %v: d = %d, reference %d", name, weight, d, want)
			}
		}
	}
}

func weightsPreserved(t perm.Perm, weight []int) bool {
	for v, w := range weight {
		if weight[t[v]] != w {
			return false
		}
	}
	return true
}

// TestRecognizeBeyondTheOldCap: K9 and K6,6, whose automorphism groups the
// closure could not list, and C1500, on which a budget that counted every
// placement ran out in the fast fail's n walks, are Cayley graphs, and the
// subgroup found is regular.
func TestRecognizeBeyondTheOldCap(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"K9": graph.Complete(9), "K6,6": graph.CompleteBipartite(6, 6), "C1500": graph.Cycle(1500),
	} {
		rec, err := RecognizeCtx(context.Background(), g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkRegular(t, name, g, rec)
	}
}

// checkRegular fails unless rec holds a regular subgroup R of Aut(g), for
// a connected simple g: n automorphisms, R[v] mapping 0 to v, R[0] the
// identity, and R[v]∘R[w] = R[R[v][w]] for every v and every neighbour w
// of 0. Those R[w] then generate a subgroup of R whose orbit of 0 is all
// of g, so it has n elements and is R itself.
func checkRegular(t *testing.T, name string, g *graph.Graph, rec *Recognition) {
	t.Helper()
	n := g.N()
	if !rec.IsCayley || len(rec.Regular) != n || !rec.Regular[0].IsIdentity() {
		t.Fatalf("%s: Cayley %v with %d elements", name, rec.IsCayley, len(rec.Regular))
	}
	for v, r := range rec.Regular {
		if r[0] != v || !isAutomorphism(g, r) {
			t.Fatalf("%s: R[%d] is not an automorphism mapping 0 to %d", name, v, v)
		}
		for _, w := range g.NeighborSet(0) {
			s, rs := rec.Regular[w], rec.Regular[r[w]]
			for x := range r {
				if r[s[x]] != rs[x] {
					t.Fatalf("%s: R[%d]∘R[%d] is not in R", name, v, w)
				}
			}
		}
	}
}

// isAutomorphism reports whether r permutes the vertices of the simple
// graph g and maps every edge to an edge, in O(n + m·deg).
func isAutomorphism(g *graph.Graph, r perm.Perm) bool {
	seen := make([]bool, g.N())
	for _, x := range r {
		if x < 0 || x >= len(seen) || seen[x] {
			return false
		}
		seen[x] = true
	}
	for u := range seen {
		for _, h := range g.Ports(u) {
			if !g.HasEdge(r[u], r[h.To]) {
				return false
			}
		}
	}
	return true
}

// FuzzRegularSubgroup decodes bytes into a graph on at most 10 nodes and
// requires the lazy search to agree with the reference, subgroup and all.
// The reference lists at most 7! automorphisms, which keeps an input fast;
// larger groups (K8 to K10, K5,5) are left to the lazy search alone.
func FuzzRegularSubgroup(f *testing.F) {
	for _, seed := range [][]byte{
		{0x05}, {0x15, 0x03}, {0x29, 0x11, 0x0f}, {0xb8, 0x7b, 0x9c, 0x93},
		{0x30, 0x00}, {0x30, 0x01}, {0x31, 0x02}, {0x34, 0x03}, {0x35, 0x01, 0x07},
		{0x36, 0x02}, {0x37, 0x04}, {0x39, 0x06, 0x02}, {0x3a, 0x05},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := decodeFuzzGraph(data)
		got := checkAgainstReference(t, fmt.Sprintf("%x", data), g, 5040)
		if got.IsCayley && len(got.Regular) != g.N() {
			t.Fatalf("%x: %d elements for %d nodes", data, len(got.Regular), g.N())
		}
	})
}

// fuzzTable holds the structured graphs FuzzRegularSubgroup's mode 3
// picks from: vertex-transitive ones, Cayley or not (Petersen), and regular
// ones that are not vertex-transitive.
var fuzzTable = []*graph.Graph{
	graph.Petersen(), graph.Prism(3), graph.Prism(4), graph.Prism(5),
	graph.Hypercube(3), graph.CompleteBipartite(3, 3), graph.CompleteBipartite(4, 4),
	graph.Torus(3, 3), graph.Circulant(10, []int{1, 4}), graph.Circulant(9, []int{1, 3}),
	graph.RandomRegular(8, 3, 1), graph.RandomRegular(10, 3, 2), graph.RandomRegular(10, 4, 3),
}

// decodeFuzzGraph is FuzzRegularSubgroup's decoder. The low nibble of the
// first byte picks n, the high one a mode: the edge bits that follow are
// used as they are (0), closed under a cyclic shift, which makes a
// circulant (1), or closed under a permutation seeded by the tail (2); or
// the tail picks a graph of fuzzTable, complemented when its first byte is
// odd (3). The graph is then relabeled by a permutation seeded by the tail.
func decodeFuzzGraph(data []byte) *graph.Graph {
	n := 1 + int(data[0]&0x0f)%10
	mode := int(data[0]>>4) % 4
	rest := data[1:]
	seed := int64(0)
	for _, b := range rest {
		seed = seed*31 + int64(b)
	}
	rng := rand.New(rand.NewSource(seed))
	var adj [][]bool
	if mode == 3 {
		pick := fuzzTable[int(data[0]&0x0f)%len(fuzzTable)]
		n = pick.N()
		adj = make([][]bool, n)
		for u := range adj {
			adj[u] = make([]bool, n)
			for w := range adj[u] {
				adj[u][w] = pick.HasEdge(u, w) != (len(rest) > 0 && rest[0]&1 == 1 && u != w)
			}
		}
	} else {
		adj = make([][]bool, n)
		for u := range adj {
			adj[u] = make([]bool, n)
		}
		bit := func(i int) bool {
			return len(rest) > 0 && rest[(i/8)%len(rest)]&(1<<(i%8)) != 0
		}
		i := 0
		for u := 0; u < n; u++ {
			for w := u + 1; w < n; w++ {
				adj[u][w] = bit(i)
				adj[w][u] = adj[u][w]
				i++
			}
		}
	}
	if mode == 1 || mode == 2 {
		sigma := make([]int, n)
		for v := range sigma {
			sigma[v] = (v + 1) % n
		}
		if mode == 2 {
			sigma = rng.Perm(n)
		}
		for changed := true; changed; {
			changed = false
			for u := 0; u < n; u++ {
				for w := 0; w < n; w++ {
					if adj[u][w] && !adj[sigma[u]][sigma[w]] {
						adj[sigma[u]][sigma[w]], adj[sigma[w]][sigma[u]] = true, true
						changed = true
					}
				}
			}
		}
	}
	relabel := rng.Perm(n)
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for w := u + 1; w < n; w++ {
			if adj[u][w] {
				b.AddEdge(relabel[u], relabel[w])
			}
		}
	}
	return b.Graph()
}
