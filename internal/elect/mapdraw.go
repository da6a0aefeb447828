// Package elect implements the paper's protocols on top of the sim runtime:
//
//   - MAP-DRAWING: every agent draws a map of the anonymous network by a
//     whiteboard DFS, waking sleeping agents it meets (Section 3.2).
//   - COMPUTE & ORDER: equivalence classes of the drawn bicolored map,
//     totally ordered by the canonical surrounding order ≺ (Lemma 3.1).
//   - Protocol ELECT: gcd reduction of the active-agent set by AGENT-REDUCE
//     (agent–agent matching) and NODE-REDUCE (agent–node acquisition),
//     with sign-based synchronization (Figures 3 and 4, Theorem 3.1).
//   - The Cayley variant of Section 4 (translation classes), the
//     quantitative baseline of Section 1.3, and the bespoke Petersen
//     protocol of Section 4.
//
// All protocol code sees the network exclusively through sim.Agent — opaque
// incomparable colors and port symbols, whiteboards, moves — so the
// qualitative model is enforced mechanically.
package elect

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Map is the result of MAP-DRAWING from one agent's perspective: an
// isomorphic copy of the network in the agent's own coordinates (node 0 is
// the agent's home-base; port p of node v corresponds to Symbols()[p] in the
// agent's own presentation order).
type Map struct {
	// G is the drawn multigraph.
	G *graph.Graph
	// Syms[v][p] is the symbol behind port p of local node v.
	Syms [][]sim.Symbol
	// Black[v] reports whether local node v is a home-base (Weight > 0).
	Black []bool
	// Weight[v] is the number of agents based at local node v — 0 or 1 in
	// the paper's main setting, possibly more under the shared-home
	// extension of Section 1.2.
	Weight []int
	// HomeColors[v] lists the colors of the agents based at v (empty if
	// white). HomeColor reports the first for the common 0/1-weight case.
	HomeColors [][]sim.Color
	// Home is the agent's own home node (always 0).
	Home int
}

// HomeColor returns the color of the (single) agent based at v; it panics
// if several agents share the node — callers supporting the shared-home
// extension must use HomeColors.
func (m *Map) HomeColor(v int) sim.Color {
	if len(m.HomeColors[v]) == 0 {
		return sim.Color{}
	}
	if len(m.HomeColors[v]) > 1 {
		panic("elect: node hosts several agents; use HomeColors")
	}
	return m.HomeColors[v][0]
}

// R returns the number of agents on the map (the sum of node weights).
func (m *Map) R() int {
	r := 0
	for _, w := range m.Weight {
		r += w
	}
	return r
}

// Colors returns the node coloring for the order package: the weight of
// each node (0 = white; under the paper's main setting black nodes are 1).
func (m *Map) Colors() []int {
	return append([]int(nil), m.Weight...)
}

// tagMapNode marks a node as visited by this agent, carrying the agent's
// local id for the node: "map:<k>".
const tagMapNodePrefix = "map:"

// MapDraw performs MAP-DRAWING: a depth-first traversal of the whole
// network, marking each whiteboard with a colored sign carrying the agent's
// local node number, wiring up ports via entry symbols, recording home-base
// colors, and waking every sleeping agent encountered. The agent ends back
// at its home-base. Cost: every edge is traversed at most twice in each
// direction, O(|E|) moves.
func MapDraw(a *sim.Agent) (*Map, error) {
	a.SetPhase(telemetry.PhaseMapDraw)
	sp := a.Span("map-drawing")
	defer sp.End()
	type nodeRec struct {
		syms   []sim.Symbol
		twins  [][2]int // per local port: (node, port) of twin; -1 unset
		colors []sim.Color
	}
	var nodes []*nodeRec
	symIndex := func(rec *nodeRec, s sim.Symbol) int {
		for i, t := range rec.syms {
			if t == s {
				return i
			}
		}
		return -1
	}

	// visit registers the current node if new, returning (local id, isNew).
	visit := func() (int, bool, error) {
		id, isNew := -1, false
		err := a.Access(func(b *sim.Board) {
			ss := b.Signs()
			for _, s := range ss {
				if s.Color.Equal(a.Color()) && strings.HasPrefix(s.Tag, tagMapNodePrefix) {
					k, err := strconv.Atoi(s.Tag[len(tagMapNodePrefix):])
					if err == nil {
						id = k
					}
					return
				}
			}
			// New node: assign the next local id and record its structure.
			id, isNew = len(nodes), true
			b.Write(tagMapNodePrefix + strconv.Itoa(id))
			rec := &nodeRec{syms: a.Symbols()}
			rec.twins = make([][2]int, len(rec.syms))
			for i := range rec.twins {
				rec.twins[i] = [2]int{-1, -1}
			}
			homes := ss.Colors(sim.TagHome)
			if len(homes) > 0 {
				rec.colors = homes
				// Wake the residents if they are still asleep.
				if !ss.Has(sim.TagWake) {
					b.Write(sim.TagWake)
				}
			}
			nodes = append(nodes, rec)
		})
		return id, isNew, err
	}

	if _, _, err := visit(); err != nil {
		return nil, err
	}

	// Iterative DFS over (node, port) pairs. The agent physically sits at
	// stack[len(stack)-1].node throughout.
	type frame struct {
		node     int
		nextPort int
		backSym  sim.Symbol // symbol leading back to the parent (zero at root)
	}
	stack := []*frame{{node: 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		rec := nodes[f.node]
		if f.nextPort >= len(rec.syms) {
			// Done with this node: backtrack physically.
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				if _, err := a.Move(f.backSym); err != nil {
					return nil, err
				}
			}
			continue
		}
		p := f.nextPort
		f.nextPort++
		if rec.twins[p][0] != -1 {
			continue // already wired from the other side
		}
		entry, err := a.Move(rec.syms[p])
		if err != nil {
			return nil, err
		}
		id, isNew, err := visit()
		if err != nil {
			return nil, err
		}
		q := symIndex(nodes[id], entry)
		if q < 0 {
			return nil, errors.New("elect: entry symbol not among destination symbols")
		}
		rec.twins[p] = [2]int{id, q}
		nodes[id].twins[q] = [2]int{f.node, p}
		if isNew {
			stack = append(stack, &frame{node: id, backSym: entry})
		} else {
			// Known node (or a loop back to the same node): step back.
			if _, err := a.Move(entry); err != nil {
				return nil, err
			}
		}
	}

	// Assemble the Map.
	twins := make([][][2]int, len(nodes))
	syms := make([][]sim.Symbol, len(nodes))
	black := make([]bool, len(nodes))
	weight := make([]int, len(nodes))
	colors := make([][]sim.Color, len(nodes))
	for v, rec := range nodes {
		twins[v] = rec.twins
		syms[v] = rec.syms
		black[v] = len(rec.colors) > 0
		weight[v] = len(rec.colors)
		colors[v] = rec.colors
	}
	g, err := graph.FromTwins(twins)
	if err != nil {
		return nil, fmt.Errorf("elect: inconsistent map: %w", err)
	}
	return &Map{G: g, Syms: syms, Black: black, Weight: weight, HomeColors: colors, Home: 0}, nil
}
