package runtime

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

func init() {
	Register("dfs-election", func(args string) (Protocol, error) {
		if args != "" {
			return nil, fmt.Errorf("runtime: dfs-election takes no args, got %q", args)
		}
		return DFSElection(), nil
	})
	Register("walker", func(args string) (Protocol, error) {
		parts := strings.Split(args, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("runtime: walker wants \"label,steps\", got %q", args)
		}
		label, err1 := strconv.Atoi(parts[0])
		steps, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("runtime: bad walker args %q", args)
		}
		return Walker(label, steps), nil
	})
	Register("chang-roberts", func(args string) (Protocol, error) {
		cw, err := strconv.Atoi(args)
		if err != nil {
			return nil, fmt.Errorf("runtime: chang-roberts wants a port label, got %q", args)
		}
		return ChangRoberts(cw), nil
	})
}

// DFSElection returns the quantitative whiteboard-DFS election. Each agent
// traverses the whole network depth-first, leaving breadcrumbs on the
// whiteboards ("v:<id>" visited marks and "t:<id>:<label>" tried-port
// marks), counting the "home" pre-marks it passes to discover r (the
// number of agents) along the way; back home it waits until all r agents
// have stamped its home-base and elects the maximum identity.
//
// Every decision depends only on the agent's own marks and the node's
// labels, so its trajectory — and therefore its move count — is
// schedule-independent: all four backends produce the identical per-agent
// move vector on a fault-free run, which is what makes the protocol the
// cross-backend conformance probe. The memory encoding is
// "<mode>|<p1>,<p2>,...|<homes>" where mode F marks a forward move, B a
// bounce or backtrack, W the home wait; the list is the stack of port
// labels leading back home; homes is the running home-mark count.
func DFSElection() Protocol { return dfsElection{} }

type dfsElection struct{}

// Spec returns the registry identity "dfs-election".
func (dfsElection) Spec() string { return "dfs-election" }

// Init returns the empty initial memory (the first activation at the
// home-base sees mode "").
func (dfsElection) Init(int) string { return "" }

// Step executes one DFS activation. The stack stays a substring of the
// memory: a push appends ",<label>", a pop cuts at the last comma and
// parses only the top label, and the home count is the only other field
// parsed, so a step costs the same at any depth.
func (dfsElection) Step(memory string, v View) (string, Effect) {
	mode, stack, homes := splitDFS(memory)
	if mode == "W" {
		return memory, waitEffect(v.Board, v.ID, homes)
	}
	id := strconv.Itoa(v.ID)
	me := "v:" + id
	triedPrefix := "t:" + id + ":"

	var writes []string
	pushEntry := false
	if mode == "F" || mode == "" {
		for _, m := range v.Board {
			if m == me {
				// Forward move into an already-visited node: bounce
				// straight back through the arrival port.
				return dfsMemory("B", stack, homes), Effect{Move: v.Entry}
			}
		}
		// First visit: count this node's residents toward r. "home" marks
		// are engine pre-marks present before any step runs (one per
		// resident, with multiplicity under shared homes), so the count is
		// schedule-independent.
		for _, m := range v.Board {
			if m == TagHome {
				homes++
			}
		}
		writes = make([]string, 1, 3)
		writes[0] = me
		if v.Entry >= 0 {
			// The way home is for backtracking, not forward exploration.
			pushEntry = true
			writes = append(writes, triedPrefix+strconv.Itoa(v.Entry))
		}
	}
	// Explore: smallest untried port label, else backtrack.
	var triedBuf [8]int
	tried := triedBuf[:0]
	if pushEntry {
		tried = append(tried, v.Entry)
	}
	for _, m := range v.Board {
		if rest, ok := strings.CutPrefix(m, triedPrefix); ok {
			if k, err := strconv.Atoi(rest); err == nil {
				tried = append(tried, k)
			}
		}
	}
	next := -1
	for _, lab := range v.Labels {
		if (next == -1 || lab < next) && !slices.Contains(tried, lab) {
			next = lab
		}
	}
	if next >= 0 {
		writes = append(writes, triedPrefix+strconv.Itoa(next))
		if pushEntry {
			stack = pushDFS(stack, v.Entry)
		}
		return dfsMemory("F", stack, homes), Effect{Write: writes, Move: next}
	}
	// No untried port: go back the way we came — through the entry of a
	// node first entered just now, else through the stack's top label.
	switch {
	case pushEntry:
		return dfsMemory("B", stack, homes), Effect{Write: writes, Move: v.Entry}
	case stack != "":
		rest, top := popDFS(stack)
		back, _ := strconv.Atoi(top)
		return dfsMemory("B", rest, homes), Effect{Write: writes, Move: back}
	}
	// Back home with the traversal complete: r is the accumulated home
	// count. Decide now if everyone has stamped already, otherwise park
	// (counting our own writes — parking with a satisfied predicate would
	// never be re-stepped).
	eff := waitEffect(append(append([]string{}, v.Board...), writes...), v.ID, homes)
	eff.Write = writes
	return dfsMemory("W", "", homes), eff
}

// waitEffect is the DFSElection home wait: park until r distinct visited
// stamps are on the board, then crown the maximum identity.
func waitEffect(board []string, id, r int) Effect {
	best, count := -1, 0
	for _, m := range board {
		if strings.HasPrefix(m, "v:") {
			if k, err := strconv.Atoi(strings.TrimPrefix(m, "v:")); err == nil {
				count++
				if k > best {
					best = k
				}
			}
		}
	}
	if count < r {
		return Effect{Move: -1}
	}
	if best == id {
		return Effect{Halt: HaltLeader, Move: -1, LeaderMark: "v:" + strconv.Itoa(id)}
	}
	return Effect{Halt: HaltDefeated, Move: -1, LeaderMark: "v:" + strconv.Itoa(best)}
}

// splitDFS cuts a DFSElection memory "<mode>|<stack>|<homes>" into its
// mode, its stack as the substring of comma-separated port labels, and its
// parsed home count.
func splitDFS(memory string) (mode, stack string, homes int) {
	mode, rest, _ := strings.Cut(memory, "|")
	stack, count, _ := strings.Cut(rest, "|")
	homes, _ = strconv.Atoi(count)
	return mode, stack, homes
}

// pushDFS appends a port label to a stack substring.
func pushDFS(stack string, label int) string {
	if stack == "" {
		return strconv.Itoa(label)
	}
	return stack + "," + strconv.Itoa(label)
}

// popDFS cuts the top label off a stack substring.
func popDFS(stack string) (rest, top string) {
	c := strings.LastIndexByte(stack, ',')
	if c < 0 {
		return "", stack
	}
	return stack[:c], stack[c+1:]
}

// dfsMemory renders a DFSElection memory.
func dfsMemory(mode, stack string, homes int) string {
	return mode + "|" + stack + "|" + strconv.Itoa(homes)
}

// Walker returns a protocol that walks steps hops through the port with
// the given label and halts "done" — the minimal protocol for backend
// plumbing tests.
func Walker(label, steps int) Protocol { return walker{label: label, steps: steps} }

type walker struct{ label, steps int }

// Spec returns "walker:<label>,<steps>".
func (w walker) Spec() string { return fmt.Sprintf("walker:%d,%d", w.label, w.steps) }

// Init seeds the memory with the remaining hop count.
func (w walker) Init(int) string { return strconv.Itoa(w.steps) }

// Step walks one hop or halts "done" when the budget is spent.
func (w walker) Step(memory string, _ View) (string, Effect) {
	left, err := strconv.Atoi(memory)
	if err != nil {
		return memory, Effect{Halt: "error", Move: -1}
	}
	if left == 0 {
		return memory, Effect{Halt: "done", Move: -1}
	}
	return strconv.Itoa(left - 1), Effect{Move: w.label}
}

// ChangRoberts returns the classic ring election (Chang–Roberts, LCR) as a
// walking agent, for an oriented ring whose every node is a home-base and
// whose clockwise ports are labeled cw. Each agent stamps "id:<ID>" at home
// and walks clockwise; at every node it waits for the resident's stamp,
// halts defeated on a larger identity, and is elected when it meets its
// own stamp again. The unique leader is the maximum identity: on C_n the
// agent with ID n walks the whole ring (n moves) and every other agent
// halts after one. Run on the message-passing backends, the walking agent
// is the circulating token of the textbook protocol — Figure 1's "a
// message is an agent".
func ChangRoberts(cw int) Protocol { return changRoberts{cw: cw} }

type changRoberts struct{ cw int }

// Spec returns "chang-roberts:<cw>".
func (c changRoberts) Spec() string { return "chang-roberts:" + strconv.Itoa(c.cw) }

// Init returns the empty memory of an agent that has not stamped yet.
func (changRoberts) Init(int) string { return "" }

// Step stamps and leaves home on the first activation, then compares the
// identity against each resident's stamp.
func (c changRoberts) Step(memory string, v View) (string, Effect) {
	if memory == "" {
		return "walk", Effect{Write: []string{"id:" + strconv.Itoa(v.ID)}, Move: c.cw}
	}
	stamp := -1
	for _, m := range v.Board {
		if id, ok := strings.CutPrefix(m, "id:"); ok {
			if k, err := strconv.Atoi(id); err == nil && k > stamp {
				stamp = k
			}
		}
	}
	switch {
	case stamp < 0:
		// The resident has not stamped yet: park until the board changes.
		return memory, Effect{Move: -1}
	case stamp == v.ID:
		return memory, Effect{Halt: HaltLeader, Move: -1}
	case stamp > v.ID:
		return memory, Effect{Halt: HaltDefeated, Move: -1}
	default:
		return memory, Effect{Move: c.cw}
	}
}
