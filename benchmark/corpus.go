package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/analysiscache"
	"repro/internal/elect"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/serve"
)

// instance is one generated election input: its wire form, the request
// body carrying it, and the graph the server builds from it.
type instance struct {
	spec serve.InstanceSpec
	body []byte
	name string
	// group is the index of the instance this one is a renumbered copy of
	// (its own index for originals).
	group int
}

// build is the graph and homes the server builds from the instance.
func (in *instance) build() (*graph.Graph, []int, error) {
	g, _, err := in.spec.Build()
	return g, in.spec.Homes, err
}

func newInstance(spec serve.InstanceSpec, group int) (instance, error) {
	_, name, err := spec.Build()
	if err != nil {
		return instance{}, err
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return instance{}, err
	}
	return instance{spec: spec, body: body, name: name, group: group}, nil
}

// explicit is the wire form of g as an explicit edge list.
func explicit(g *graph.Graph, homes []int) serve.InstanceSpec {
	return serve.InstanceSpec{N: g.N(), Edges: g.EdgeEndpoints(), Homes: homes}
}

// verdict is the comparable part of an analysis: what /v1/analyze answers.
func verdict(sizes []int, gcd int, cayley bool, d int, checked, impossible bool) string {
	return fmt.Sprintf("sizes=%v gcd=%d solvable=%t cayley=%t d=%d thm21=%t/%t",
		sizes, gcd, gcd == 1, cayley, d, checked, impossible)
}

func analysisVerdict(an *elect.Analysis) string {
	return verdict(an.Sizes, an.GCD, an.Cayley, an.TranslationD, an.Thm21Checked, an.Impossible21)
}

func responseVerdict(r *serve.AnalyzeResponse) string {
	v := verdict(r.Sizes, r.GCD, r.Cayley, r.TranslationD, r.Thm21Checked, r.Impossible21)
	if r.Solvable != (r.GCD == 1) {
		v += " solvable-mismatch"
	}
	return v
}

// reference is elect.Analyze of the instance, computed outside any timed
// section: the verdict a served analysis must match.
func reference(in *instance) (string, error) {
	g, homes, err := in.build()
	if err != nil {
		return "", err
	}
	an, err := elect.Analyze(g, homes, order.Direct)
	if err != nil {
		return "", err
	}
	return analysisVerdict(an), nil
}

// electloadPool is cmd/electload's seeded instance pool: cycles 6–24 with
// homes {0, 1, n/2}, hypercubes 3–4 with homes {0, 1}, and renumbered
// copies of the cycles (labels rotated by a seeded offset), which the
// daemon's iso-canonical cache key must map onto their originals.
func electloadPool(rng *rand.Rand) ([]instance, error) {
	var pool []instance
	add := func(spec serve.InstanceSpec, group int) error {
		if group < 0 {
			group = len(pool)
		}
		in, err := newInstance(spec, group)
		if err != nil {
			return err
		}
		pool = append(pool, in)
		return nil
	}
	sizes := []int{6, 9, 12, 18, 24}
	for _, n := range sizes {
		if err := add(serve.InstanceSpec{Family: "cycle", Size: n, Homes: []int{0, 1, n / 2}}, -1); err != nil {
			return nil, err
		}
	}
	for _, d := range []int{3, 4} {
		if err := add(serve.InstanceSpec{Family: "hypercube", Size: d, Homes: []int{0, 1}}, -1); err != nil {
			return nil, err
		}
	}
	for i, n := range sizes {
		rot := 1 + rng.Intn(n-1)
		edges := make([][2]int, n)
		for j := 0; j < n; j++ {
			edges[j] = [2]int{(j + rot) % n, (j + 1 + rot) % n}
		}
		spec := serve.InstanceSpec{N: n, Edges: edges, Homes: []int{rot % n, (1 + rot) % n, (n/2 + rot) % n}}
		if err := add(spec, i); err != nil {
			return nil, err
		}
	}
	return pool, nil
}

// coldFamilies is the small-path rotation of the analyze-cold corpus, with
// sizes that keep each analysis within tens of milliseconds.
var coldFamilies = []string{"cycle", "path", "grid", "torus", "hypercube", "prism", "wheel", "petersen", "random", "regular"}

// largeEvery makes every largeEvery-th analyze-cold instance a graph of at
// least order.LargeThreshold nodes (the sparse path): rare enough that
// p99 stays in the small-path tail and no one instance dominates a run.
const largeEvery = 400

// coldGen generates the analyze-cold corpus: pairwise non-isomorphic
// instances (small ones deduplicated by their canonical key, large ones
// distinct by construction), so that every request misses the cache.
type coldGen struct {
	rng   *rand.Rand
	seen  map[string]bool
	large int
}

func newColdGen(seed int64) *coldGen {
	return &coldGen{rng: rand.New(rand.NewSource(seed)), seen: make(map[string]bool)}
}

// homes draws r distinct home bases among n nodes, r in [1, min(4, n-1)].
func (c *coldGen) homes(n int) []int {
	r := 1 + c.rng.Intn(min(4, n-1))
	return c.rng.Perm(n)[:r]
}

// small draws one small-path graph of the family.
func (c *coldGen) small(family string) *graph.Graph {
	rng := c.rng
	switch family {
	case "cycle":
		return graph.Cycle(5 + rng.Intn(20))
	case "path":
		return graph.Path(4 + rng.Intn(21))
	case "grid":
		return graph.Grid(2+rng.Intn(4), 2+rng.Intn(4))
	case "torus":
		return graph.Torus(3+rng.Intn(3), 3+rng.Intn(3))
	case "hypercube":
		return graph.Hypercube(2 + rng.Intn(3))
	case "prism":
		return graph.Prism(3 + rng.Intn(10))
	case "wheel":
		return graph.Wheel(4 + rng.Intn(13))
	case "petersen":
		return graph.Petersen()
	case "random":
		n := 8 + rng.Intn(17)
		return graph.RandomConnected(n, n/2, rng.Int63())
	default: // regular: random 3-regular
		return graph.RandomRegular(8+2*rng.Intn(9), 3, rng.Int63())
	}
}

// largeGraph is the next sparse-path graph: cycles, tori and random
// 3-regular graphs in rotation, each family growing by a few nodes per
// occurrence so no two are isomorphic.
func (c *coldGen) largeGraph() *graph.Graph {
	k := c.large / 3
	defer func() { c.large++ }()
	switch c.large % 3 {
	case 0:
		return graph.Cycle(order.LargeThreshold + k)
	case 1:
		a := 45 + k%4
		b := 46 + k
		return graph.Torus(a, b)
	default:
		return graph.RandomRegular(order.LargeThreshold+2*k, 3, c.rng.Int63())
	}
}

// next returns corpus instance i.
func (c *coldGen) next(i int, withLarge bool) (instance, error) {
	if withLarge && i%largeEvery == largeEvery-1 {
		g := c.largeGraph()
		return newInstance(explicit(g, c.homes(g.N())), i)
	}
	for try := 0; ; try++ {
		family := coldFamilies[(i+try/8)%len(coldFamilies)]
		g := c.small(family)
		homes := c.homes(g.N())
		key := analysiscache.CanonicalKey(g, homes)
		if c.seen[key] {
			if try > 64 {
				return instance{}, fmt.Errorf("analyze-cold: no new instance after %d draws", try)
			}
			continue
		}
		c.seen[key] = true
		return newInstance(explicit(g, homes), i)
	}
}

// warmupInstances are analyze-cold's set-up requests: complete graphs and
// stars, families the corpus never draws, so warming leaves every corpus
// instance a miss.
func warmupInstances() ([]instance, error) {
	var out []instance
	for n := 3; n <= 6; n++ {
		for _, spec := range []serve.InstanceSpec{
			{Family: "complete", Size: n, Homes: []int{0, 1}},
			{Family: "star", Size: n, Homes: []int{1, 2}},
		} {
			in, err := newInstance(spec, len(out))
			if err != nil {
				return nil, err
			}
			out = append(out, in)
		}
	}
	return out, nil
}
