package iso

// This file freezes the repo's original (pre-optimization) canonical
// labeling engine: map/string/fmt-based equitable refinement over the
// dense Colored form and a backtracking search without best-word prefix
// pruning, with the original quadratic stabilizer-orbit pruning. It is the
// only dense search left, and it exists for two reasons:
//
//   - differential testing: the optimized engine's isomorphism verdicts,
//     automorphism orbits and equitable partitions are cross-checked
//     against this one (see reference_test.go and sparse_test.go), and
//   - the perf trajectory: cmd/benchiso measures the optimized engine's
//     speedup against it (SetReferenceEngine) and records both in
//     BENCH_iso.json; CI gates that speedup.
//
// Leaf words use the dense n+n² serialization of Colored.word; the
// optimized engine writes the O(n+m) sparse word instead, so the two
// engines' words live in different code spaces and only their equality
// relations are comparable. The serialization is a negligible fraction of
// the original engine's runtime — its cost is dominated by the
// fmt/map/string refinement — so reference timings remain honest
// pre-optimization timings.
//
// Both engines order the subcells of a refinement split by vertex
// signature; the original compares signatures as formatted decimal strings
// while the optimized engine compares them numerically. The two orders
// coincide whenever every signature count has a single decimal digit
// (counts are bounded by vertex degrees), which covers every graph in this
// repository's workloads; on such graphs the engines produce identical
// equitable partitions.

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/perm"
)

// refPartition is an ordered partition of the vertex set into cells.
type refPartition struct {
	cells [][]int
}

func (p *refPartition) clone() *refPartition {
	q := &refPartition{cells: make([][]int, len(p.cells))}
	for i, c := range p.cells {
		q.cells[i] = append([]int(nil), c...)
	}
	return q
}

func (p *refPartition) discrete() bool {
	for _, c := range p.cells {
		if len(c) > 1 {
			return false
		}
	}
	return true
}

// refInitialPartition groups vertices by color, cells ordered by color value.
func refInitialPartition(c *Colored) *refPartition {
	byColor := make(map[int][]int)
	var colors []int
	for v := 0; v < c.N; v++ {
		if _, ok := byColor[c.Color[v]]; !ok {
			colors = append(colors, c.Color[v])
		}
		byColor[c.Color[v]] = append(byColor[c.Color[v]], v)
	}
	sort.Ints(colors)
	p := &refPartition{}
	for _, col := range colors {
		p.cells = append(p.cells, byColor[col])
	}
	return p
}

// refRefine is the original equitable refinement: repeatedly split cells by
// the vector, over all current cells, of (out-multiplicity into the cell,
// in-multiplicity from the cell), with signatures built by fmt into strings
// and subcells ordered by string sort.
func refRefine(c *Colored, p *refPartition) *refPartition {
	cur := p.clone()
	for {
		// Compute, for each vertex, its signature relative to cur.
		sig := make(map[int]string, c.N)
		var buf bytes.Buffer
		for _, cell := range cur.cells {
			for _, v := range cell {
				buf.Reset()
				for _, other := range cur.cells {
					out, in := 0, 0
					for _, u := range other {
						out += c.Adj[v][u]
						in += c.Adj[u][v]
					}
					fmt.Fprintf(&buf, "%d,%d;", out, in)
				}
				sig[v] = buf.String()
			}
		}
		next := &refPartition{}
		split := false
		for _, cell := range cur.cells {
			groups := make(map[string][]int)
			var keys []string
			for _, v := range cell {
				s := sig[v]
				if _, ok := groups[s]; !ok {
					keys = append(keys, s)
				}
				groups[s] = append(groups[s], v)
			}
			if len(keys) > 1 {
				split = true
			}
			sort.Strings(keys)
			for _, k := range keys {
				next.cells = append(next.cells, groups[k])
			}
		}
		cur = next
		if !split {
			return cur
		}
	}
}

// refIndividualize returns the partition with v pulled out of its cell as a
// preceding singleton.
func refIndividualize(p *refPartition, v int) *refPartition {
	q := &refPartition{}
	for _, cell := range p.cells {
		idx := -1
		for i, u := range cell {
			if u == v {
				idx = i
				break
			}
		}
		if idx < 0 {
			q.cells = append(q.cells, append([]int(nil), cell...))
			continue
		}
		q.cells = append(q.cells, []int{v})
		rest := make([]int, 0, len(cell)-1)
		rest = append(rest, cell[:idx]...)
		rest = append(rest, cell[idx+1:]...)
		if len(rest) > 0 {
			q.cells = append(q.cells, rest)
		}
	}
	return q
}

// refPermFromDiscrete converts a discrete partition to the permutation
// sending each vertex to its cell position.
func refPermFromDiscrete(p *refPartition, n int) perm.Perm {
	out := make(perm.Perm, n)
	for pos, cell := range p.cells {
		out[cell[0]] = pos
	}
	return out
}

type refCanonState struct {
	c     *Colored
	best  []byte
	bperm perm.Perm
	autos []perm.Perm
	// base is the stack of individualized vertices on the current path.
	base []int
}

// referenceCanonical is the frozen original engine that SetReferenceEngine
// puts behind CanonicalSparse; see the file comment.
func referenceCanonical(c *Colored) *Result {
	if c.N == 0 {
		return &Result{Perm: perm.Perm{}, Word: []byte{}}
	}
	st := &refCanonState{c: c}
	st.search(refRefine(c, refInitialPartition(c)))
	return &Result{Perm: st.bperm, Word: st.best, AutoGens: st.autos}
}

func (st *refCanonState) search(p *refPartition) {
	if p.discrete() {
		cand := refPermFromDiscrete(p, st.c.N)
		w := st.c.word(cand)
		switch {
		case st.best == nil || bytes.Compare(w, st.best) < 0:
			st.best = w
			st.bperm = cand
		case bytes.Equal(w, st.best):
			// cand and bperm induce the same canonical graph, so
			// bperm⁻¹∘cand is an automorphism of c.
			a := cand.Compose(st.bperm.Inverse())
			if !a.IsIdentity() && st.c.IsAutomorphism(a) {
				st.autos = append(st.autos, a)
			}
		}
		return
	}
	// Branch on the first smallest non-singleton cell.
	target := -1
	for i, cell := range p.cells {
		if len(cell) > 1 {
			if target == -1 || len(cell) < len(p.cells[target]) {
				target = i
			}
		}
	}
	cell := p.cells[target]

	// Orbit pruning: among the automorphisms discovered so far, keep the
	// ones fixing every vertex of the current base pointwise; two cell
	// vertices in the same orbit of that stabilizer lead to identical
	// subtrees, so explore one representative per orbit.
	tried := make([]int, 0, len(cell))
	for _, v := range cell {
		if st.inStabOrbitOfTried(v, tried) {
			continue
		}
		tried = append(tried, v)
		st.base = append(st.base, v)
		st.search(refRefine(st.c, refIndividualize(p, v)))
		st.base = st.base[:len(st.base)-1]
	}
}

// inStabOrbitOfTried reports whether some already-tried vertex maps to v
// under the subgroup of discovered automorphisms that fix the current base.
func (st *refCanonState) inStabOrbitOfTried(v int, tried []int) bool {
	if len(tried) == 0 || len(st.autos) == 0 {
		return false
	}
	var stab []perm.Perm
	for _, a := range st.autos {
		ok := true
		for _, b := range st.base {
			if a[b] != b {
				ok = false
				break
			}
		}
		if ok {
			stab = append(stab, a)
		}
	}
	if len(stab) == 0 {
		return false
	}
	// BFS the orbit of v under stab (and inverses).
	seen := map[int]bool{v: true}
	queue := []int{v}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, t := range tried {
			if x == t {
				return true
			}
		}
		for _, a := range stab {
			for _, y := range []int{a[x], a.Inverse()[x]} {
				if !seen[y] {
					seen[y] = true
					queue = append(queue, y)
				}
			}
		}
	}
	return false
}
