// Package zoo implements related-work election protocols on the unified
// runtime.Protocol contract — the "protocol zoo" of the reproduction.
//
// The source paper (Barrière–Flocchini–Fraigniaud–Santoro, SPAA 2003)
// characterizes election feasibility in the qualitative model by the gcd of
// the automorphism-class sizes. The related papers retrieved alongside it
// solve election in neighboring models with different characterizations,
// and each lands here as a protocol written once against the
// runtime.Protocol{Spec/Init/Step} step contract, so all four backends
// (goroutine, scheduled, transformed, networked) run it unmodified:
//
//   - zoo-dp — Dereniowski–Pelc–style election for asynchronous mobile
//     agents in arbitrary networks (arXiv:1205.6249): agents reconstruct
//     the port-labeled map by whiteboard DFS and elect the agent whose
//     home-base has a unique view; solvable iff some home-base's
//     view-equivalence class is a singleton.
//   - zoo-shades:strong|weak|selection — the Gorain–Miller–Pelc "Four
//     Shades" split (arXiv:2009.06149) adapted to mobile agents: strong
//     election (every agent must name the leader, which here requires full
//     topology recognition — every view class a singleton — and costs a
//     physical naming walk to the winner's home-base), weak election (a
//     unique leader must emerge but non-leaders learn nothing more;
//     solvable iff some home view class is a singleton), and selection
//     (exactly one agent is distinguished; universally solvable because
//     the quantitative max-identity rule breaks residual symmetry, the
//     Section 1.3 row of the source paper's Table 1).
//   - zoo-uso — a unique-sink-orientation election in the style of
//     Chalopin–Kokkou (arXiv:2511.19208) for dismantlable graphs: a
//     canonical greedy dismantling (repeatedly eliminating dominated
//     vertices in view-class order) leaves a unique sink, and the agent
//     whose home-base is canonically nearest the sink wins. On inputs
//     outside the model (non-dismantlable graphs, or a symmetric core or
//     tie) the protocol reports unsolvable.
//
// Every protocol shares one schedule-independent skeleton (mapwalk.go):
// depth-first map reconstruction using only the agent's own whiteboard
// number marks and the engine's home pre-marks, a barrier at the home-base
// until all r agents have stamped it, then a pure decision over the
// reconstructed map. Decisions depend only on the map, the agent's own
// home, and (for selection's quantitative tie-break) its identity — never
// on scheduling — so outcome vectors and exact per-agent move counts agree
// across all four backends, which is what the differential conformance
// suite pins.
//
// Predict evaluates each protocol's solvability rule centrally on the true
// instance; the cross-protocol feasibility-and-cost matrix (matrix.go,
// cmd/zoo) compares every protocol's distributed verdict against it and
// against the source paper's gcd oracle — Table 1 regenerated across three
// papers' models.
package zoo

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/elect"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/runtime"
)

// kind enumerates the zoo protocol family members.
type kind int

const (
	kindDP kind = iota
	kindShadesStrong
	kindShadesWeak
	kindShadesSelection
	kindUSO
)

// specDP, specShades and specUSO are the runtime-registry spec names.
const (
	specDP     = "zoo-dp"
	specShades = "zoo-shades"
	specUSO    = "zoo-uso"
)

func init() {
	runtime.Register(specDP, func(args string) (runtime.Protocol, error) {
		if args != "" {
			return nil, fmt.Errorf("zoo: %s takes no args, got %q", specDP, args)
		}
		return protocol{kind: kindDP}, nil
	})
	runtime.Register(specShades, func(args string) (runtime.Protocol, error) {
		switch args {
		case "strong":
			return protocol{kind: kindShadesStrong}, nil
		case "weak":
			return protocol{kind: kindShadesWeak}, nil
		case "selection":
			return protocol{kind: kindShadesSelection}, nil
		}
		return nil, fmt.Errorf("zoo: %s wants strong, weak, or selection, got %q", specShades, args)
	})
	runtime.Register(specUSO, func(args string) (runtime.Protocol, error) {
		if args != "" {
			return nil, fmt.Errorf("zoo: %s takes no args, got %q", specUSO, args)
		}
		return protocol{kind: kindUSO}, nil
	})
}

// Specs returns the registry spec strings of every zoo protocol, in the
// canonical matrix order.
func Specs() []string {
	return []string{
		specDP,
		specShades + ":strong",
		specShades + ":weak",
		specShades + ":selection",
		specUSO,
	}
}

// New constructs a zoo protocol from its registry spec ("zoo-dp",
// "zoo-shades:strong|weak|selection", "zoo-uso"). It is a typed convenience
// over runtime.FromSpec restricted to this package's protocols.
func New(spec string) (runtime.Protocol, error) {
	k, err := kindOf(spec)
	if err != nil {
		return nil, err
	}
	return protocol{kind: k}, nil
}

// kindOf parses a zoo spec string to its kind.
func kindOf(spec string) (kind, error) {
	name, args, _ := strings.Cut(spec, ":")
	switch name {
	case specDP:
		if args == "" {
			return kindDP, nil
		}
	case specShades:
		switch args {
		case "strong":
			return kindShadesStrong, nil
		case "weak":
			return kindShadesWeak, nil
		case "selection":
			return kindShadesSelection, nil
		}
	case specUSO:
		if args == "" {
			return kindUSO, nil
		}
	}
	return 0, fmt.Errorf("zoo: unknown protocol spec %q (have %s)", spec, strings.Join(Specs(), ", "))
}

// modeOf maps a kind to the agreement contract its verdicts are held to.
func modeOf(k kind) elect.VerdictMode {
	switch k {
	case kindDP, kindShadesStrong:
		return elect.ModeStrong
	case kindShadesSelection:
		return elect.ModeSelection
	default:
		return elect.ModeWeak
	}
}

// ModeOf maps a registry spec to the agreement contract its verdicts are
// held to, without evaluating any instance (the campaign's protocol axis
// needs the mode even when analysis is disabled). Unknown specs — including
// "dfs-election" — report the strong contract.
func ModeOf(spec string) elect.VerdictMode {
	k, err := kindOf(spec)
	if err != nil {
		return elect.ModeStrong
	}
	return modeOf(k)
}

// strongNaming reports whether the kind performs the physical naming walk
// (defeated agents travel to the winner's home-base to learn its identity).
func strongNaming(k kind) bool {
	return k == kindDP || k == kindShadesStrong
}

// Prediction is the central oracle's evaluation of one zoo protocol on one
// instance: the same solvability rule the distributed protocol applies to
// its reconstructed map, evaluated on the true graph. It validates the
// distributed execution (traversal, map reconstruction, cross-backend
// transport), not the rule itself; the independent gcd oracle
// (elect.Analyze) supplies the source paper's verdict alongside.
type Prediction struct {
	// Solvable is the protocol's feasibility verdict on the instance.
	Solvable bool
	// Winner is the agent index the protocol must elect when Solvable
	// (-1 otherwise).
	Winner int
	// Mode is the agreement contract of the protocol's verdicts
	// (elect.ModeStrong / ModeWeak / ModeSelection).
	Mode elect.VerdictMode
	// Fallback reports that selection's quantitative max-identity
	// tie-break decided the winner (no view class singled out a home).
	Fallback bool
	// Applicable reports whether the instance is inside the protocol's
	// model (false only for zoo-uso on non-dismantlable graphs); an
	// inapplicable protocol still runs and must report unsolvable.
	Applicable bool
}

// Predict evaluates spec's solvability rule centrally: it builds the
// port-labeled map from the true instance (nil labels defaults to the
// trivial labeling) and applies the same pure decision the agents apply to
// their reconstructed maps. The spec "dfs-election" is accepted too and
// yields the quantitative universality prediction (always solvable, the
// maximum identity wins), so the campaign's protocol axis is uniform.
func Predict(spec string, g *graph.Graph, labels graph.EdgeLabeling, homes []int) (Prediction, error) {
	if spec == "dfs-election" {
		return Prediction{Solvable: true, Winner: len(homes) - 1, Mode: elect.ModeStrong, Applicable: true}, nil
	}
	k, err := kindOf(spec)
	if err != nil {
		return Prediction{}, err
	}
	if labels == nil {
		labels = graph.PortLabeling(g)
	}
	m := mapFromGraph(g, labels, homes)
	d := decide(k, m)
	p := Prediction{Solvable: d.solvable, Winner: -1, Mode: modeOf(k), Fallback: d.fallback, Applicable: true}
	if k == kindUSO {
		_, ok := canonicalSink(m, m.classes())
		p.Applicable = ok
	}
	if !d.solvable {
		return p, nil
	}
	if d.fallback {
		p.Winner = len(homes) - 1
		return p, nil
	}
	for i, h := range homes {
		if h == d.winner {
			p.Winner = i
			return p, nil
		}
	}
	return Prediction{}, fmt.Errorf("zoo: %s winner node %d is not a home-base", spec, d.winner)
}

// Verdict classifies a completed contract run: "leader" when a unique
// leader emerged, "unsolvable" when every agent reported unsolvable, and
// "mixed" otherwise.
func Verdict(res *runtime.Result) string {
	unsolvable := 0
	for _, o := range res.Outcomes {
		if o == runtime.HaltUnsolvable {
			unsolvable++
		}
	}
	if unsolvable == len(res.Outcomes) {
		return "unsolvable"
	}
	if res.Leader() >= 0 {
		leaders, defeated := 0, 0
		for _, o := range res.Outcomes {
			switch o {
			case runtime.HaltLeader:
				leaders++
			case runtime.HaltDefeated:
				defeated++
			}
		}
		if leaders == 1 && leaders+defeated == len(res.Outcomes) {
			return "leader"
		}
	}
	return "mixed"
}

// Check compares a completed contract run against the central prediction
// and returns the invariant violations: verdict vs the predicted
// solvability, uniqueness of the leader, and the predicted winner's
// identity. It is the runtime.Result counterpart of elect.CheckInvariants
// for zoo protocols (the sim-facing mode-aware predicates live there).
func Check(res *runtime.Result, pred Prediction) []elect.Violation {
	var out []elect.Violation
	leaders := 0
	for _, o := range res.Outcomes {
		if o == runtime.HaltLeader {
			leaders++
		}
	}
	if leaders > 1 {
		out = append(out, elect.Violation{
			Code:   elect.VioMultipleLeaders,
			Detail: fmt.Sprintf("%d agents halted leader", leaders),
		})
	}
	verdict := Verdict(res)
	switch {
	case pred.Solvable && verdict != "leader":
		out = append(out, elect.Violation{
			Code:   elect.VioWrongVerdict,
			Detail: fmt.Sprintf("instance is solvable in this model but the run ended %q", verdict),
		})
	case !pred.Solvable && verdict != "unsolvable":
		out = append(out, elect.Violation{
			Code:   elect.VioWrongVerdict,
			Detail: fmt.Sprintf("instance is unsolvable in this model but the run ended %q", verdict),
		})
	case pred.Solvable && res.Leader() != pred.Winner:
		out = append(out, elect.Violation{
			Code:   elect.VioWrongVerdict,
			Detail: fmt.Sprintf("agent %d won but the model's rule elects agent %d", res.Leader(), pred.Winner),
		})
	}
	return out
}

// GCDVerdict renders the source paper's oracle for an instance: "leader"
// when gcd(|C_1|,…,|C_k|) = 1, "unsolvable" otherwise.
func GCDVerdict(an *elect.Analysis) string {
	if an != nil && an.GCD == 1 {
		return "leader"
	}
	return "unsolvable"
}

// Analyze runs the source paper's centralized analysis on an instance (the
// gcd oracle column of the matrix).
func Analyze(g *graph.Graph, homes []int) (*elect.Analysis, error) {
	return elect.Analyze(g, homes, order.Direct)
}

// sortedCopy returns a sorted copy of xs.
func sortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}
