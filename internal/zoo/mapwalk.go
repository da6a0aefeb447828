package zoo

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/view"
)

// The walk phases. The zero memory ("") is the start phase; the state
// machine then moves through traversal, the home-base barrier, and (for the
// strong-naming kinds) the naming walk to the winner's home-base.
const (
	phaseStart    = ""
	phaseTraverse = "T"
	phaseWait     = "W"
	phaseName     = "N"
)

// nodeInfo is what the walker records about one discovered node: the number
// of "home" pre-marks on its whiteboard and the sorted edge labels of its
// ports. Both are engine-written or structural, never another agent's
// protocol state, which is what keeps the reconstruction
// schedule-independent.
type nodeInfo struct {
	homes  int
	labels []int
}

// edgeRec is one discovered edge: endpoints in the walker's own numbering
// with the edge label on each side. A self-loop is recorded once with u == v
// and its two distinct labels.
type edgeRec struct {
	u, lu, v, lv int
}

// walkState is the decoded memory of a zoo agent: a depth-first map
// reconstruction in progress. All fields serialize into the memory string
// (encodeWalk/decodeWalk) so the state machine rides through any backend,
// including across the networked bus.
type walkState struct {
	phase string
	// cur is the walker's position in its own numbering; next is the next
	// unused node number.
	cur, next int
	// pendFrom/pendLab describe an in-flight forward probe: the walker left
	// node pendFrom through the port labeled pendLab and has not yet
	// classified the arrival node (-1/-1 when no probe is pending).
	pendFrom, pendLab int
	// ret is the node the walker is returning to after a bounce or a
	// backtrack (-1 when not returning).
	ret int
	// stackNodes/stackEntries is the DFS stack: the nodes on the current
	// root path (excluding the root) and, per node, the entry label leading
	// back toward its parent.
	stackNodes, stackEntries []int
	nodes                    []nodeInfo
	edges                    []edgeRec
	// route is the remaining label sequence of the naming walk.
	route []int
}

// newWalkState returns the start-phase state.
func newWalkState() *walkState {
	return &walkState{phase: phaseStart, pendFrom: -1, pendLab: -1, ret: -1}
}

// encodeWalk serializes the state into the protocol memory string.
func encodeWalk(st *walkState) string {
	nodes := make([]string, len(st.nodes))
	for i, ni := range st.nodes {
		parts := make([]string, 0, len(ni.labels)+1)
		parts = append(parts, strconv.Itoa(ni.homes))
		for _, l := range ni.labels {
			parts = append(parts, strconv.Itoa(l))
		}
		nodes[i] = strings.Join(parts, ".")
	}
	edges := make([]string, len(st.edges))
	for i, e := range st.edges {
		edges[i] = fmt.Sprintf("%d.%d.%d.%d", e.u, e.lu, e.v, e.lv)
	}
	sections := []string{
		st.phase,
		strconv.Itoa(st.cur),
		strconv.Itoa(st.next),
		strconv.Itoa(st.pendFrom) + "," + strconv.Itoa(st.pendLab),
		strconv.Itoa(st.ret),
		intsJoin(st.stackNodes),
		intsJoin(st.stackEntries),
		strings.Join(nodes, ";"),
		strings.Join(edges, ";"),
		intsJoin(st.route),
	}
	return strings.Join(sections, "|")
}

// decodeWalk parses a protocol memory string back into a walk state. The
// empty memory decodes to the start phase.
func decodeWalk(mem string) (*walkState, error) {
	if mem == "" {
		return newWalkState(), nil
	}
	sections := strings.Split(mem, "|")
	if len(sections) != 10 {
		return nil, fmt.Errorf("zoo: memory has %d sections, want 10", len(sections))
	}
	st := &walkState{phase: sections[0]}
	var err error
	if st.cur, err = strconv.Atoi(sections[1]); err != nil {
		return nil, fmt.Errorf("zoo: bad cur: %w", err)
	}
	if st.next, err = strconv.Atoi(sections[2]); err != nil {
		return nil, fmt.Errorf("zoo: bad next: %w", err)
	}
	pf, pl, ok := strings.Cut(sections[3], ",")
	if !ok {
		return nil, fmt.Errorf("zoo: bad probe %q", sections[3])
	}
	if st.pendFrom, err = strconv.Atoi(pf); err != nil {
		return nil, fmt.Errorf("zoo: bad probe node: %w", err)
	}
	if st.pendLab, err = strconv.Atoi(pl); err != nil {
		return nil, fmt.Errorf("zoo: bad probe label: %w", err)
	}
	if st.ret, err = strconv.Atoi(sections[4]); err != nil {
		return nil, fmt.Errorf("zoo: bad return node: %w", err)
	}
	if st.stackNodes, err = intsSplit(sections[5]); err != nil {
		return nil, fmt.Errorf("zoo: bad stack nodes: %w", err)
	}
	if st.stackEntries, err = intsSplit(sections[6]); err != nil {
		return nil, fmt.Errorf("zoo: bad stack entries: %w", err)
	}
	if len(st.stackNodes) != len(st.stackEntries) {
		return nil, fmt.Errorf("zoo: stack nodes/entries length mismatch (%d vs %d)",
			len(st.stackNodes), len(st.stackEntries))
	}
	if sections[7] != "" {
		for _, enc := range strings.Split(sections[7], ";") {
			fields, err := intsSplitSep(enc, ".")
			if err != nil || len(fields) < 1 {
				return nil, fmt.Errorf("zoo: bad node record %q", enc)
			}
			st.nodes = append(st.nodes, nodeInfo{homes: fields[0], labels: fields[1:]})
		}
	}
	if sections[8] != "" {
		for _, enc := range strings.Split(sections[8], ";") {
			fields, err := intsSplitSep(enc, ".")
			if err != nil || len(fields) != 4 {
				return nil, fmt.Errorf("zoo: bad edge record %q", enc)
			}
			st.edges = append(st.edges, edgeRec{u: fields[0], lu: fields[1], v: fields[2], lv: fields[3]})
		}
	}
	if st.route, err = intsSplit(sections[9]); err != nil {
		return nil, fmt.Errorf("zoo: bad route: %w", err)
	}
	return st, nil
}

// intsJoin renders xs comma-separated ("" for empty).
func intsJoin(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

// intsSplit parses a comma-separated int list ("" decodes to empty).
func intsSplit(s string) ([]int, error) { return intsSplitSep(s, ",") }

func intsSplitSep(s, sep string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, sep)
	out := make([]int, len(parts))
	for i, p := range parts {
		x, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		out[i] = x
	}
	return out, nil
}

// triedAt returns the set of edge labels at node x already covered by a
// recorded edge (both endpoints of every edge count).
func (st *walkState) triedAt(x int) map[int]bool {
	tried := make(map[int]bool)
	for _, e := range st.edges {
		if e.u == x {
			tried[e.lu] = true
		}
		if e.v == x {
			tried[e.lv] = true
		}
	}
	return tried
}

// addNode records the node the walker currently occupies (number st.next-1
// is NOT assumed — the caller numbers nodes) from its view: home pre-mark
// count and sorted port labels.
func (st *walkState) addNode(homes int, labels []int) {
	st.nodes = append(st.nodes, nodeInfo{homes: homes, labels: sortedCopy(labels)})
}

// totalHomes sums the home pre-marks over every discovered node; after a
// complete traversal this is r, the number of agents.
func (st *walkState) totalHomes() int {
	total := 0
	for _, ni := range st.nodes {
		total += ni.homes
	}
	return total
}

// reconstruct builds the decision-facing map from the recorded traversal.
func (st *walkState) reconstruct() mapData {
	n := len(st.nodes)
	m := mapData{n: n, arcs: make([][]view.Arc, n), homes: make([]int, n)}
	for v, ni := range st.nodes {
		m.homes[v] = ni.homes
	}
	for _, e := range st.edges {
		m.arcs[e.u] = append(m.arcs[e.u], view.Arc{Lab: e.lu, Far: e.lv, To: e.v})
		m.arcs[e.v] = append(m.arcs[e.v], view.Arc{Lab: e.lv, Far: e.lu, To: e.u})
	}
	m.sortArcs()
	return m
}

// routeTo returns the label sequence of a canonical shortest walk from the
// walker's home (node 0) to node target: at every step take the
// smallest-label arc that decreases the BFS distance to the target.
func (st *walkState) routeTo(target int) []int {
	m := st.reconstruct()
	dist := bfsDist(m, target)
	var route []int
	for at := 0; at != target; {
		best, bestLab := -1, -1
		for _, a := range m.arcs[at] {
			if dist[a.To] == dist[at]-1 && (best < 0 || a.Lab < bestLab) {
				best, bestLab = a.To, a.Lab
			}
		}
		if best < 0 {
			return nil
		}
		route = append(route, bestLab)
		at = best
	}
	return route
}
