package campaign

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/adversary"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/runtime"
	"repro/internal/zoo"
)

// ProtocolKind selects the protocol a campaign runs.
type ProtocolKind string

// The protocol kinds a campaign can execute (matching cmd/elect).
const (
	ProtoElect        ProtocolKind = "elect"
	ProtoCayley       ProtocolKind = "cayley"
	ProtoQuantitative ProtocolKind = "quantitative"
	ProtoPetersen     ProtocolKind = "petersen"
	ProtoGather       ProtocolKind = "gather"
)

// SeedRange is an inclusive range of adversary seeds.
type SeedRange struct {
	From, To int64
}

// Count returns the number of seeds in the range (0 when empty).
func (r SeedRange) Count() int {
	if r.To < r.From {
		return 0
	}
	return int(r.To - r.From + 1)
}

// FamilySpec describes one graph family of a campaign: the family name, the
// size parameters to instantiate, and the home placements to enumerate on
// each instance — either a strategy expanded against the built graph or an
// explicit list.
type FamilySpec struct {
	// Family is a generator name: path, cycle, complete, star, hypercube
	// (size = dimension), torus (size = side), grid (size = side), petersen
	// (size ignored), wheel, prism, ccc (size = dimension), random.
	Family string
	// Sizes lists the size parameters; families with a fixed size (petersen)
	// may leave it empty.
	Sizes []int
	// Placement names the home-placement strategy: "spread" (R agents evenly
	// spaced), "adjacent" (nodes 0..R-1), "antipodal" (0 and n/2, R forced
	// to 2), "single" (node 0). Ignored when Homes is set.
	Placement string
	// R is the number of agents for the placement strategy.
	R int
	// Homes, when non-empty, lists explicit placements (one run set per
	// entry) and overrides Placement/R.
	Homes [][]int
}

// Spec is a declarative campaign: families × sizes × placements × seeds
// (× adversary strategies), executed under one protocol. Expansion is
// deterministic — the same spec always yields the same work list in the
// same order.
type Spec struct {
	Families []FamilySpec
	Seeds    SeedRange
	Protocol ProtocolKind
	// Strategies, when non-empty, crosses every run with the named adversary
	// scheduling strategies (see internal/adversary): each (instance, seed)
	// pair executes once per strategy under the serializing scheduler, with
	// protocol invariants checked after each run. Empty means one free-running
	// (goroutine-timing) run per seed, the classic campaign.
	Strategies []string
	// Faults, when non-empty, further crosses every run with the named fault
	// strategies (see internal/faults). Fault injection needs the serializing
	// scheduler, so an empty Strategies list defaults to ["random"] when
	// Faults is set. Fault runs are checked against the fault-aware invariant
	// spec and carry their fault manifest in the JSONL record.
	Faults []string
	// Backends, when non-empty, crosses every run with the named runtime
	// backends (see internal/runtime: goroutine, scheduled, transformed,
	// networked) instead of the classic simulator path. Without a Protocols
	// axis the backend axis runs the contract election
	// (runtime.DFSElection) and therefore requires
	// Protocol == ProtoQuantitative; with one it runs the named contract
	// protocols. It cannot be combined with the Strategies or Faults axes,
	// which are simulator-scheduler machinery (use runtime.Scheduled
	// directly for that).
	Backends []string
	// Protocols, when non-empty, crosses every run with the named contract
	// protocol specs from the runtime registry (the internal/zoo protocols
	// plus "dfs-election"), replacing the classic Protocol kind. Each cell
	// runs either on the named Backends or — when Backends is empty — on
	// the simulator through runtime.AsSimProtocol, where it composes with
	// the Strategies and Faults axes. Runs are checked against the
	// protocol's own central oracle (zoo.Predict) under its verdict mode.
	Protocols []string
}

// Run is one unit of campaign work: a named instance plus an adversary seed
// and, optionally, an adversary scheduling strategy.
type Run struct {
	// Instance names the (graph, homes) pair, e.g. "cycle12[0 4 8]".
	Instance string
	// Family and Size name the generator that built G (BuildGraph
	// vocabulary), so a replay bundle can rebuild the instance; Family is
	// empty for graphs no generator names.
	Family   string
	Size     int
	G        *graph.Graph
	Homes    []int
	Seed     int64
	Protocol ProtocolKind
	// Strategy names the adversary scheduling strategy driving the run
	// ("" = free-running simulator).
	Strategy string
	// Fault names the fault strategy injected into the run ("" = fault-free).
	Fault string
	// Backend names the runtime backend executing the run ("" = the classic
	// simulator path; otherwise one of runtime.Backends()).
	Backend string
	// ProtoSpec names the contract protocol spec executing the run ("" =
	// the classic Protocol kind; otherwise a runtime-registry spec such as
	// "zoo-dp" or "dfs-election", run on Backend or through the simulator
	// adapter).
	ProtoSpec string
}

// Expand turns the spec into its deterministic work list. Each (family,
// size) pair builds its graph exactly once, so every seed of an instance
// shares the same *graph.Graph value (and therefore the same analysis-cache
// entry).
func (s Spec) Expand() ([]Run, error) {
	if s.Seeds.Count() == 0 {
		return nil, fmt.Errorf("campaign: empty seed range [%d, %d]", s.Seeds.From, s.Seeds.To)
	}
	proto := s.Protocol
	if proto == "" {
		proto = ProtoElect
	}
	if _, err := protocolFor(proto, Options{}); err != nil {
		return nil, err
	}
	strategies := s.Strategies
	if len(strategies) == 0 {
		if len(s.Faults) > 0 {
			// Fault injection rides on the serializing scheduler; give fault
			// sweeps a deterministic default rather than rejecting them.
			strategies = []string{"random"}
		} else {
			strategies = []string{""}
		}
	}
	for _, st := range strategies {
		if st == "" {
			continue
		}
		if _, err := adversary.NewStrategy(st, 0, nil); err != nil {
			return nil, err
		}
	}
	faultAxis := s.Faults
	if len(faultAxis) == 0 {
		faultAxis = []string{""}
	}
	for _, fs := range faultAxis {
		if fs == "" {
			continue
		}
		if _, err := faults.New(fs, 0, 1, nil); err != nil {
			return nil, err
		}
	}
	protoAxis := s.Protocols
	if len(protoAxis) == 0 {
		protoAxis = []string{""}
	} else {
		for _, ps := range protoAxis {
			if _, err := runtime.FromSpec(ps); err != nil {
				return nil, err
			}
		}
	}
	backendAxis := s.Backends
	if len(backendAxis) == 0 {
		backendAxis = []string{""}
	} else {
		if len(s.Protocols) == 0 && proto != ProtoQuantitative {
			return nil, fmt.Errorf("campaign: the backend axis runs the contract election and needs -protocol quantitative (or a -protocols axis), not %q", proto)
		}
		if len(s.Strategies) > 0 || len(s.Faults) > 0 {
			return nil, fmt.Errorf("campaign: the backend axis cannot be combined with strategy or fault axes")
		}
		for _, b := range backendAxis {
			if _, err := runtime.New(b); err != nil {
				return nil, err
			}
		}
	}
	var runs []Run
	for _, f := range s.Families {
		sizes := f.Sizes
		if len(sizes) == 0 {
			sizes = []int{0}
		}
		for _, size := range sizes {
			g, err := BuildGraph(f.Family, size)
			if err != nil {
				return nil, err
			}
			placements := f.Homes
			if len(placements) == 0 {
				placements, err = expandPlacement(f.Placement, f.R, g.N())
				if err != nil {
					return nil, fmt.Errorf("campaign: %s%d: %w", f.Family, size, err)
				}
			}
			for _, homes := range placements {
				for _, h := range homes {
					if h < 0 || h >= g.N() {
						return nil, fmt.Errorf("campaign: %s%d: home %d out of range", f.Family, size, h)
					}
				}
				name := instanceName(f.Family, size, homes)
				for _, strat := range strategies {
					for _, fs := range faultAxis {
						for _, ps := range protoAxis {
							for _, backend := range backendAxis {
								for seed := s.Seeds.From; seed <= s.Seeds.To; seed++ {
									runs = append(runs, Run{
										Instance: name, Family: f.Family, Size: size,
										G: g, Homes: homes, Seed: seed,
										Protocol: proto, Strategy: strat, Fault: fs,
										Backend: backend, ProtoSpec: ps,
									})
								}
							}
						}
					}
				}
			}
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("campaign: spec expands to no runs")
	}
	return runs, nil
}

func instanceName(family string, size int, homes []int) string {
	if family == "petersen" {
		return fmt.Sprintf("petersen%v", homes)
	}
	return fmt.Sprintf("%s%d%v", family, size, homes)
}

// expandPlacement resolves a placement strategy against a graph of n nodes.
func expandPlacement(strategy string, r, n int) ([][]int, error) {
	if r <= 0 {
		r = 1
	}
	switch strategy {
	case "", "spread":
		if r > n {
			return nil, fmt.Errorf("placement spread: r=%d exceeds n=%d", r, n)
		}
		homes := make([]int, r)
		for i := range homes {
			homes[i] = i * n / r
		}
		return [][]int{homes}, nil
	case "adjacent":
		if r > n {
			return nil, fmt.Errorf("placement adjacent: r=%d exceeds n=%d", r, n)
		}
		homes := make([]int, r)
		for i := range homes {
			homes[i] = i
		}
		return [][]int{homes}, nil
	case "antipodal":
		if n < 2 {
			return nil, fmt.Errorf("placement antipodal: need n >= 2, have %d", n)
		}
		return [][]int{{0, n / 2}}, nil
	case "single":
		return [][]int{{0}}, nil
	default:
		return nil, fmt.Errorf("unknown placement strategy %q", strategy)
	}
}

// BuildGraph instantiates a named graph family (the registry shared by the
// campaign spec and the CLIs).
func BuildGraph(family string, size int) (*graph.Graph, error) {
	switch family {
	case "path":
		return graph.Path(size), nil
	case "cycle":
		return graph.Cycle(size), nil
	case "complete":
		return graph.Complete(size), nil
	case "star":
		return graph.Star(size), nil
	case "hypercube":
		return graph.Hypercube(size), nil
	case "torus":
		return graph.Torus(size, size), nil
	case "grid":
		return graph.Grid(size, size), nil
	case "petersen":
		return graph.Petersen(), nil
	case "fig2c":
		return graph.Fig2c(), nil
	case "wheel":
		return graph.Wheel(size), nil
	case "prism":
		return graph.Prism(size), nil
	case "ccc":
		return graph.CCC(size), nil
	case "random":
		return graph.RandomConnected(size, size/2, 42), nil
	default:
		return nil, fmt.Errorf("campaign: unknown graph family %q", family)
	}
}

// ParseFamilies parses the CLI family syntax: semicolon-separated
// "family:size1,size2,..." entries, e.g. "cycle:9,12,15;hypercube:3,4".
// Families without sizes ("petersen") omit the colon part. The placement
// is a strategy name (see FamilySpec.Placement) or an explicit home list
// such as "1,2", which every family then uses as its Homes.
func ParseFamilies(s string, placement string, r int) ([]FamilySpec, error) {
	var homes [][]int
	if placement != "" && placement[0] >= '0' && placement[0] <= '9' {
		h, err := ParseHomes(placement)
		if err != nil {
			return nil, err
		}
		homes = [][]int{h}
	}
	var out []FamilySpec
	for _, entry := range strings.Split(s, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, sizesPart, hasSizes := strings.Cut(entry, ":")
		f := FamilySpec{Family: strings.TrimSpace(name), Placement: placement, R: r, Homes: homes}
		if hasSizes {
			for _, tok := range strings.Split(sizesPart, ",") {
				v, err := strconv.Atoi(strings.TrimSpace(tok))
				if err != nil {
					return nil, fmt.Errorf("campaign: bad size %q in %q: %w", tok, entry, err)
				}
				f.Sizes = append(f.Sizes, v)
			}
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("campaign: no families in %q", s)
	}
	return out, nil
}

// ParseHomes parses a comma-separated home-base list such as "0,4,8".
func ParseHomes(s string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return nil, fmt.Errorf("campaign: bad home %q: %w", tok, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseAxis parses one comma-separated campaign axis: "" means the axis is
// absent (nil, nil), the token "all" expands through the axis's full list,
// every other token is validated by check, and duplicates collapse to their
// first occurrence. All the CLI axis parsers (strategies, faults, backends,
// protocols) are this one function with the axis's own expansion and
// validation plugged in.
func parseAxis(s string, all func() []string, check func(string) error) ([]string, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []string
	seen := make(map[string]bool)
	add := func(name string) error {
		if seen[name] {
			return nil
		}
		if err := check(name); err != nil {
			return err
		}
		seen[name] = true
		out = append(out, name)
		return nil
	}
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if tok == "all" {
			for _, name := range all() {
				if err := add(name); err != nil {
					return nil, err
				}
			}
			continue
		}
		if err := add(tok); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ParseStrategies parses the CLI strategy syntax: comma-separated adversary
// strategy names, with "all" expanding to every built-in and "" meaning no
// strategy axis (free-running runs).
func ParseStrategies(s string) ([]string, error) {
	return parseAxis(s, adversary.Strategies, func(name string) error {
		_, err := adversary.NewStrategy(name, 0, nil)
		return err
	})
}

// ParseFaults parses the CLI fault syntax: comma-separated fault strategy
// names (see internal/faults), with "all" expanding to every built-in and ""
// meaning no fault axis.
func ParseFaults(s string) ([]string, error) {
	return parseAxis(s, faults.Strategies, func(name string) error {
		_, err := faults.New(name, 0, 1, nil)
		return err
	})
}

// ParseBackends parses the CLI backend syntax: comma-separated runtime
// backend names (see internal/runtime), with "all" expanding to every
// backend and "" meaning no backend axis (the classic simulator path).
func ParseBackends(s string) ([]string, error) {
	return parseAxis(s, runtime.Backends, func(name string) error {
		_, err := runtime.New(name)
		return err
	})
}

// ParseProtocols parses the CLI protocol-spec syntax: comma-separated
// runtime-registry specs (see internal/zoo and runtime.FromSpec), with
// "all" expanding to every zoo protocol plus the contract election and ""
// meaning no protocol axis (the classic Protocol kind).
func ParseProtocols(s string) ([]string, error) {
	return parseAxis(s, func() []string {
		return append(zoo.Specs(), "dfs-election")
	}, func(name string) error {
		_, err := runtime.FromSpec(name)
		return err
	})
}

// ParseSeedRange parses "a..b" (inclusive) or a single seed "a".
func ParseSeedRange(s string) (SeedRange, error) {
	s = strings.TrimSpace(s)
	lo, hi, isRange := strings.Cut(s, "..")
	from, err := strconv.ParseInt(strings.TrimSpace(lo), 10, 64)
	if err != nil {
		return SeedRange{}, fmt.Errorf("campaign: bad seed %q: %w", lo, err)
	}
	if !isRange {
		return SeedRange{From: from, To: from}, nil
	}
	to, err := strconv.ParseInt(strings.TrimSpace(hi), 10, 64)
	if err != nil {
		return SeedRange{}, fmt.Errorf("campaign: bad seed %q: %w", hi, err)
	}
	return SeedRange{From: from, To: to}, nil
}
