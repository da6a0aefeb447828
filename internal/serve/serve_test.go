package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/elect"
	"repro/internal/graph"
	"repro/internal/telemetry"
)

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(data))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func getPath(h http.Handler, path string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	return w
}

func TestHealthzAndDrainFlip(t *testing.T) {
	s := New(Config{})
	w := getPath(s, "/healthz")
	if w.Code != http.StatusOK {
		t.Fatalf("healthz: %d %s", w.Code, w.Body)
	}
	var h Health
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Draining {
		t.Fatalf("health: %+v", h)
	}
	s.StartDrain()
	if w := getPath(s, "/healthz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz should answer 503, got %d", w.Code)
	}
}

func TestAnalyzeVerdicts(t *testing.T) {
	s := New(Config{})
	// C6 with antipodal homes: two classes of 3, gcd 2, unsolvable.
	w := postJSON(t, s, "/v1/analyze", InstanceSpec{Family: "cycle", Size: 6, Homes: []int{0, 3}})
	if w.Code != http.StatusOK {
		t.Fatalf("analyze: %d %s", w.Code, w.Body)
	}
	var resp AnalyzeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.GCD != 2 || resp.Solvable {
		t.Fatalf("C6 antipodal: %+v", resp)
	}
	if !resp.Cayley {
		t.Fatalf("C6 is a Cayley graph: %+v", resp)
	}
	// Asymmetric placement breaks every color-preserving automorphism:
	// singleton classes, gcd 1, solvable.
	w = postJSON(t, s, "/v1/analyze", InstanceSpec{Family: "cycle", Size: 6, Homes: []int{0, 1, 3}})
	json.Unmarshal(w.Body.Bytes(), &resp) //nolint:errcheck
	if !resp.Solvable {
		t.Fatalf("C6 {0,1,3} should be solvable: %+v", resp)
	}
}

func TestAnalyzeExplicitEdges(t *testing.T) {
	s := New(Config{})
	// A path 0-1-2 given explicitly.
	w := postJSON(t, s, "/v1/analyze", InstanceSpec{
		N: 3, Edges: [][2]int{{0, 1}, {1, 2}}, Homes: []int{0, 2},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("explicit analyze: %d %s", w.Code, w.Body)
	}
	var resp AnalyzeResponse
	json.Unmarshal(w.Body.Bytes(), &resp) //nolint:errcheck
	if resp.N != 3 || resp.M != 2 || resp.GCD != 1 {
		t.Fatalf("path3 endpoints: %+v", resp)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	s := New(Config{})
	cases := []struct {
		name string
		body any
	}{
		{"no homes", InstanceSpec{Family: "cycle", Size: 6}},
		{"unknown family", InstanceSpec{Family: "klein-bottle", Size: 4, Homes: []int{0}}},
		{"home out of range", InstanceSpec{Family: "cycle", Size: 6, Homes: []int{9}}},
		{"family and edges", InstanceSpec{Family: "cycle", Size: 3, N: 3, Edges: [][2]int{{0, 1}}, Homes: []int{0}}},
		{"disconnected", InstanceSpec{N: 4, Edges: [][2]int{{0, 1}, {2, 3}}, Homes: []int{0}}},
		{"self loop", InstanceSpec{N: 2, Edges: [][2]int{{0, 0}, {0, 1}}, Homes: []int{0}}},
		{"edge out of range", InstanceSpec{N: 2, Edges: [][2]int{{0, 5}}, Homes: []int{0}}},
	}
	for _, tc := range cases {
		if w := postJSON(t, s, "/v1/analyze", tc.body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: got %d, want 400 (%s)", tc.name, w.Code, w.Body)
		}
	}
	// Malformed JSON and unknown fields are 400 too.
	req := httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(`{"family": `))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Errorf("malformed JSON: got %d", w.Code)
	}
	req = httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(`{"familee":"cycle"}`))
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Errorf("unknown field: got %d", w.Code)
	}
}

// TestAnalyzeCoalescing is the acceptance-critical test: N concurrent
// requests for isomorphic (renumbered!) instances trigger exactly one
// analysis. The injected analyze function gates until every request has
// either started the computation or joined it.
func TestAnalyzeCoalescing(t *testing.T) {
	const n = 12
	var calls atomic.Int64
	gate := make(chan struct{})
	s := New(Config{
		Workers: n, // every request gets a slot; coalescing, not the pool, must serialize
		Analyze: func(ctx context.Context, g *graph.Graph, homes []int) (*elect.Analysis, error) {
			calls.Add(1)
			<-gate
			return &elect.Analysis{Sizes: []int{1, 1}, GCD: 1}, nil
		},
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Renumbered copies of (C8, homes {0,4}): rotate the cycle by k and
	// carry the homes along. Structurally different JSON, one canonical key.
	bodies := make([][]byte, n)
	for k := 0; k < n; k++ {
		rot := k % 8
		edges := make([][2]int, 8)
		for i := 0; i < 8; i++ {
			edges[i] = [2]int{(i + rot) % 8, (i + 1 + rot) % 8}
		}
		body, _ := json.Marshal(InstanceSpec{
			N: 8, Edges: edges, Homes: []int{rot % 8, (4 + rot) % 8},
		})
		bodies[k] = body
	}

	var wg sync.WaitGroup
	codes := make([]int, n)
	cached := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(bodies[i]))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			var ar AnalyzeResponse
			json.NewDecoder(resp.Body).Decode(&ar) //nolint:errcheck
			cached[i] = ar.Cached
		}(i)
	}
	// Wait until all requests are inside the cache (1 computing, n-1
	// coalesced), then release the single computation.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Cache().Stats()
		if st.Misses+st.Coalesced >= n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("requests never coalesced: %+v (calls=%d)", st, calls.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("%d concurrent isomorphic requests ran %d analyses, want exactly 1", n, got)
	}
	nCached := 0
	for i := range codes {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if cached[i] {
			nCached++
		}
	}
	if nCached != n-1 {
		t.Fatalf("%d of %d responses marked cached, want %d", nCached, n, n-1)
	}
}

func TestElectRunAndArtifact(t *testing.T) {
	s := New(Config{})
	w := postJSON(t, s, "/v1/elect", ElectRequest{
		InstanceSpec: InstanceSpec{Family: "path", Size: 5, Homes: []int{0, 1}},
		Seed:         7,
	})
	if w.Code != http.StatusOK {
		t.Fatalf("elect: %d %s", w.Code, w.Body)
	}
	var resp ElectResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Result.Outcome != "leader" || !resp.Result.OK {
		t.Fatalf("path5 solvable run: %+v", resp.Result)
	}
	if resp.Result.GCD != 1 || resp.Result.Expected != "leader" {
		t.Fatalf("oracle fields missing from manifest: %+v", resp.Result)
	}
	// The replay artifact is downloadable and pins the request.
	aw := getPath(s, resp.ArtifactURL)
	if aw.Code != http.StatusOK {
		t.Fatalf("artifact: %d %s", aw.Code, aw.Body)
	}
	var art Artifact
	if err := json.Unmarshal(aw.Body.Bytes(), &art); err != nil {
		t.Fatal(err)
	}
	if art.Request.Seed != 7 || art.Result.Outcome != "leader" {
		t.Fatalf("artifact bundle: %+v", art)
	}
	if w := getPath(s, "/v1/artifacts/run-99999999"); w.Code != http.StatusNotFound {
		t.Fatalf("missing artifact: %d", w.Code)
	}
}

func TestElectWithStrategyAndFault(t *testing.T) {
	s := New(Config{})
	w := postJSON(t, s, "/v1/elect", ElectRequest{
		InstanceSpec: InstanceSpec{Family: "star", Size: 4, Homes: []int{1, 2}},
		Seed:         3,
		Strategy:     "round-robin",
		Fault:        "crash-frontrunner",
	})
	if w.Code != http.StatusOK {
		t.Fatalf("fault elect: %d %s", w.Code, w.Body)
	}
	var resp ElectResponse
	json.Unmarshal(w.Body.Bytes(), &resp) //nolint:errcheck
	if resp.Result.Fault != "crash-frontrunner" || resp.Result.Strategy != "round-robin" {
		t.Fatalf("axes not recorded: %+v", resp.Result)
	}
	if !resp.Result.OK {
		t.Fatalf("fault run violated survivor invariants: %+v", resp.Result)
	}
	// Unknown protocol: 400, not a crash.
	w = postJSON(t, s, "/v1/elect", ElectRequest{
		InstanceSpec: InstanceSpec{Family: "cycle", Size: 6, Homes: []int{0}},
		Protocol:     "raft",
	})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("unknown protocol: %d %s", w.Code, w.Body)
	}
}

// TestCampaignStreamRoundTrip drives a small campaign through the chunked
// JSONL endpoint and re-assembles runs + summary on the client side.
func TestCampaignStreamRoundTrip(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	req := CampaignRequest{
		Families: []FamilyWire{
			{Family: "cycle", Sizes: []int{6, 9}, Placement: "adjacent", R: 2},
		},
		SeedFrom: 1, SeedTo: 5,
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/campaign", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("campaign: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Fatalf("content type %q", ct)
	}

	var runs []campaign.RunResult
	var summary *campaign.Summary
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line CampaignLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Run != nil:
			if summary != nil {
				t.Fatal("run line after the summary trailer")
			}
			runs = append(runs, *line.Run)
		case line.Summary != nil:
			summary = line.Summary
		case line.Error != "":
			t.Fatalf("stream error: %s", line.Error)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// 2 instances × 5 seeds = 10 runs, then the summary.
	if len(runs) != 10 {
		t.Fatalf("streamed %d runs, want 10", len(runs))
	}
	if summary == nil || summary.Runs != 10 {
		t.Fatalf("summary: %+v", summary)
	}
	seen := map[int]bool{}
	for _, r := range runs {
		if !r.OK || r.Outcome != r.Expected {
			t.Fatalf("run contradicts the oracle: %+v", r)
		}
		seen[r.Index] = true
	}
	if len(seen) != 10 {
		t.Fatalf("indices not unique: %v", seen)
	}
	// The second campaign over the same instances is all cache hits.
	resp2, err := http.Post(ts.URL+"/v1/campaign", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	sc2 := bufio.NewScanner(resp2.Body)
	var summary2 *campaign.Summary
	for sc2.Scan() {
		var line CampaignLine
		json.Unmarshal(sc2.Bytes(), &line) //nolint:errcheck
		if line.Summary != nil {
			summary2 = line.Summary
		}
	}
	if summary2 == nil || summary2.CacheMisses != 0 || summary2.CacheHits != 10 {
		t.Fatalf("second campaign should be served from the shared cache: %+v", summary2)
	}
}

func TestCampaignValidation(t *testing.T) {
	s := New(Config{MaxCampaignRuns: 5})
	w := postJSON(t, s, "/v1/campaign", CampaignRequest{
		Families: []FamilyWire{{Family: "cycle", Sizes: []int{6}, Placement: "spread", R: 2}},
		SeedFrom: 1, SeedTo: 100,
	})
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized campaign: %d %s", w.Code, w.Body)
	}
	w = postJSON(t, s, "/v1/campaign", CampaignRequest{
		Families: []FamilyWire{{Family: "nope", Sizes: []int{6}}},
		SeedFrom: 1, SeedTo: 2,
	})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad family: %d %s", w.Code, w.Body)
	}
}

// TestPoolSheds: with one slot held by a gated analysis, a second request
// for a different instance is shed with 503 + Retry-After after the queue
// timeout.
func TestPoolSheds(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	s := New(Config{
		Workers:      1,
		QueueTimeout: 30 * time.Millisecond,
		Analyze: func(ctx context.Context, g *graph.Graph, homes []int) (*elect.Analysis, error) {
			started <- struct{}{}
			<-gate
			return &elect.Analysis{GCD: 1}, nil
		},
	})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer close(gate)

	go func() {
		body, _ := json.Marshal(InstanceSpec{Family: "cycle", Size: 6, Homes: []int{0}})
		http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body)) //nolint:errcheck
	}()
	<-started // the slot is now held inside the analysis

	body, _ := json.Marshal(InstanceSpec{Family: "cycle", Size: 9, Homes: []int{0}})
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated server: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 should carry Retry-After")
	}
	if s.Metrics().Counter("serve_shed_total").Value() == 0 {
		t.Fatal("shed not counted")
	}
}

// TestRequestDeadline: an analysis slower than the request timeout
// returns 504 without wedging the server.
func TestRequestDeadline(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	s := New(Config{
		RequestTimeout: 50 * time.Millisecond,
		Analyze: func(ctx context.Context, g *graph.Graph, homes []int) (*elect.Analysis, error) {
			<-gate
			return &elect.Analysis{GCD: 1}, nil
		},
	})
	ts := httptest.NewServer(s)
	defer ts.Close()
	body, _ := json.Marshal(InstanceSpec{Family: "cycle", Size: 6, Homes: []int{0}})
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("slow analysis: %d, want 504", resp.StatusCode)
	}
}

// TestDrainCancelsRuns: a drain whose grace expires aborts in-flight work
// through the run-context hammer and still terminates cleanly.
func TestDrainCancelsRuns(t *testing.T) {
	s := New(Config{
		RequestTimeout:  time.Minute,
		CampaignTimeout: time.Minute,
		RunTimeout:      time.Minute,
	})
	hs, err := Listen("127.0.0.1:0", s, nil)
	if err != nil {
		t.Fatal(err)
	}
	hs.Start()

	// A campaign of watchdog-proof runs: gcd 3 spread placement on C9 is
	// quick, so use many seeds to keep it busy; drain hits mid-flight.
	req := CampaignRequest{
		Families: []FamilyWire{{Family: "cycle", Sizes: []int{24}, Placement: "spread", R: 3}},
		SeedFrom: 1, SeedTo: 400,
	}
	body, _ := json.Marshal(req)
	done := make(chan error, 1)
	go func() {
		resp, err := http.Post("http://"+hs.Addr()+"/v1/campaign", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- err
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
		}
		done <- sc.Err()
	}()

	// Wait until the campaign is actually executing.
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().Counter("campaign_runs_total").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("campaign never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	start := time.Now()
	if err := Drain(hs, s, 50*time.Millisecond, 10*time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("drain took %v", elapsed)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("client never saw the stream end")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := New(Config{})
	postJSON(t, s, "/v1/analyze", InstanceSpec{Family: "cycle", Size: 6, Homes: []int{0, 3}})
	w := getPath(s, "/debug/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: %d", w.Code)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["serve_analyze_total"] != 1 {
		t.Fatalf("analyze counter: %+v", snap.Counters)
	}
	if snap.Gauges["serve_cache_misses"] != 1 {
		t.Fatalf("cache gauges not published: %+v", snap.Gauges)
	}
}

// TestRequestLatencyMicroseconds: request latency is recorded in
// microseconds, so even sub-millisecond cache-hit analyses land above
// zero — in whole milliseconds they all read 0.
func TestRequestLatencyMicroseconds(t *testing.T) {
	s := New(Config{})
	const n = 5
	for i := 0; i < n; i++ {
		if w := postJSON(t, s, "/v1/analyze", InstanceSpec{Family: "cycle", Size: 6, Homes: []int{0, 2}}); w.Code != http.StatusOK {
			t.Fatalf("analyze: %d %s", w.Code, w.Body)
		}
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(getPath(s, "/debug/metrics").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	h := snap.Histograms["serve_request_us"]
	if h.Count != n || h.P50 <= 0 || h.Min <= 0 {
		t.Fatalf("serve_request_us = %+v, want %d requests with a nonzero p50", h, n)
	}
}

func TestInstanceSpecNames(t *testing.T) {
	g, name, err := InstanceSpec{Family: "cycle", Size: 6, Homes: []int{0, 3}}.Build()
	if err != nil || g.N() != 6 {
		t.Fatalf("build: %v", err)
	}
	if name != fmt.Sprintf("cycle6%v", []int{0, 3}) {
		t.Fatalf("name %q", name)
	}
}
