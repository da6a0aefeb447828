package serve

import (
	"errors"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/graph"
)

// InstanceSpec is the wire form of one (graph, homes) election instance.
// The graph comes either from a named generator family ("family" + "size",
// the registry shared with cmd/campaign) or as an explicit edge list
// ("n" + "edges"); "homes" lists the agents' home-base nodes either way.
type InstanceSpec struct {
	// Family + Size select a generator instance (cycle, hypercube, torus,
	// petersen, ...). Mutually exclusive with N/Edges.
	Family string `json:"family,omitempty"`
	Size   int    `json:"size,omitempty"`
	// N + Edges give an explicit multigraph: node count and undirected
	// endpoint pairs (self-loops rejected, parallel edges allowed).
	N     int      `json:"n,omitempty"`
	Edges [][2]int `json:"edges,omitempty"`
	// Homes are the agents' home-base nodes (one agent per entry).
	Homes []int `json:"homes"`
}

// Build materializes the spec into a graph plus a display name.
func (in InstanceSpec) Build() (*graph.Graph, string, error) {
	if len(in.Homes) == 0 {
		return nil, "", errors.New("instance: homes must be non-empty")
	}
	var g *graph.Graph
	var name string
	switch {
	case in.Family != "" && len(in.Edges) == 0:
		var err error
		g, err = campaign.BuildGraph(in.Family, in.Size)
		if err != nil {
			return nil, "", err
		}
		name = fmt.Sprintf("%s%d%v", in.Family, in.Size, in.Homes)
	case in.Family == "" && len(in.Edges) > 0:
		if in.N <= 0 {
			return nil, "", errors.New("instance: explicit edges need n > 0")
		}
		b := graph.NewBuilder(in.N)
		for _, e := range in.Edges {
			u, v := e[0], e[1]
			if u < 0 || u >= in.N || v < 0 || v >= in.N {
				return nil, "", fmt.Errorf("instance: edge [%d %d] out of range [0,%d)", u, v, in.N)
			}
			if u == v {
				return nil, "", fmt.Errorf("instance: self-loop at node %d not supported", u)
			}
			b.AddEdge(u, v)
		}
		g = b.Graph()
		name = fmt.Sprintf("explicit-n%d-m%d%v", in.N, len(in.Edges), in.Homes)
	case in.Family != "" && len(in.Edges) > 0:
		return nil, "", errors.New("instance: family and edges are mutually exclusive")
	default:
		return nil, "", errors.New("instance: need family or edges")
	}
	if !g.IsConnected() {
		return nil, "", errors.New("instance: graph must be connected")
	}
	for _, h := range in.Homes {
		if h < 0 || h >= g.N() {
			return nil, "", fmt.Errorf("instance: home %d out of range [0,%d)", h, g.N())
		}
	}
	return g, name, nil
}

// AnalyzeResponse is the verdict of POST /v1/analyze: the centralized
// solvability analysis of the instance (Theorems 2.1/3.1 and the Cayley
// recognition of Section 4), plus whether the cache served it.
type AnalyzeResponse struct {
	Instance string `json:"instance"`
	N        int    `json:"n"`
	M        int    `json:"m"`
	R        int    `json:"r"`
	// Sizes are the ordered automorphism-class sizes, GCD their gcd, and
	// Solvable the Theorem 3.1 verdict (GCD == 1).
	Sizes    []int `json:"sizes"`
	GCD      int   `json:"gcd"`
	Solvable bool  `json:"solvable"`
	// Cayley recognition (Section 4) and the Theorem 2.1 impossibility
	// check, when decidable. CayleyUndecided is set, and Cayley false,
	// when the Cayley test did not decide: the large path skips it, and
	// its search may exhaust its budget.
	Cayley          bool `json:"cayley"`
	CayleyUndecided bool `json:"cayley_undecided,omitempty"`
	TranslationD    int  `json:"translation_d,omitempty"`
	Thm21Checked    bool `json:"thm21_checked"`
	Impossible21    bool `json:"impossible21,omitempty"`
	// Cached reports the analysis was served without computing (a cache
	// hit or a coalesced join of an in-flight computation).
	Cached    bool    `json:"cached"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// ElectRequest asks for one simulated election run.
type ElectRequest struct {
	InstanceSpec
	// Seed drives the run's nondeterminism (color palette, wake set,
	// presentation shuffles, scheduling).
	Seed int64 `json:"seed"`
	// Protocol is elect (default), cayley, quantitative, petersen, gather.
	Protocol string `json:"protocol,omitempty"`
	// Strategy, when set, drives the run under the named adversary
	// scheduling strategy on the serializing scheduler; Fault additionally
	// injects the named fault plan (crash-stop, torn-write, stale-read).
	Strategy string `json:"strategy,omitempty"`
	Fault    string `json:"fault,omitempty"`
	// WakeAll wakes every agent at start instead of a seeded subset.
	WakeAll bool `json:"wake_all,omitempty"`
}

// ElectResponse is the run manifest of POST /v1/elect: the same per-run
// record a campaign's JSONL stream carries, plus the replay artifact
// handle.
type ElectResponse struct {
	Result campaign.RunResult `json:"result"`
	// ArtifactID names the stored replay bundle; fetch it at ArtifactURL.
	ArtifactID  string `json:"artifact_id"`
	ArtifactURL string `json:"artifact_url"`
}

// CampaignRequest asks for a full multi-seed campaign, streamed back as
// chunked JSONL (one CampaignLine per completed run, then a trailing
// summary line).
type CampaignRequest struct {
	// Families crosses generator instances with placements, exactly like
	// the cmd/campaign spec.
	Families []FamilyWire `json:"families"`
	// SeedFrom..SeedTo is the inclusive seed range.
	SeedFrom int64  `json:"seed_from"`
	SeedTo   int64  `json:"seed_to"`
	Protocol string `json:"protocol,omitempty"`
	// Strategies / Faults cross every run with adversary scheduling and
	// fault-injection strategies ("all" is not expanded here — name them).
	Strategies []string `json:"strategies,omitempty"`
	Faults     []string `json:"faults,omitempty"`
	WakeAll    bool     `json:"wake_all,omitempty"`
}

// FamilyWire is the JSON form of one campaign family axis.
type FamilyWire struct {
	Family    string  `json:"family"`
	Sizes     []int   `json:"sizes,omitempty"`
	Placement string  `json:"placement,omitempty"`
	R         int     `json:"r,omitempty"`
	Homes     [][]int `json:"homes,omitempty"`
}

// Spec converts the request into a campaign spec.
func (cr CampaignRequest) Spec() campaign.Spec {
	fams := make([]campaign.FamilySpec, len(cr.Families))
	for i, f := range cr.Families {
		fams[i] = campaign.FamilySpec{
			Family: f.Family, Sizes: f.Sizes,
			Placement: f.Placement, R: f.R, Homes: f.Homes,
		}
	}
	return campaign.Spec{
		Families:   fams,
		Seeds:      campaign.SeedRange{From: cr.SeedFrom, To: cr.SeedTo},
		Protocol:   campaign.ProtocolKind(cr.Protocol),
		Strategies: cr.Strategies,
		Faults:     cr.Faults,
	}
}

// CampaignLine is one line of the /v1/campaign JSONL stream: exactly one
// of Run (per completed run, completion order), Summary (the trailing
// aggregate), or Error (the campaign stopped early).
type CampaignLine struct {
	Run     *campaign.RunResult `json:"run,omitempty"`
	Summary *campaign.Summary   `json:"summary,omitempty"`
	Error   string              `json:"error,omitempty"`
}

// Health is the GET /healthz body.
type Health struct {
	Status   string  `json:"status"`
	UptimeMS float64 `json:"uptime_ms"`
	Inflight int64   `json:"inflight"`
	Draining bool    `json:"draining"`
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
}
