package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("runs")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter: %d, want 5", c.Value())
	}
	if r.Counter("runs") != c {
		t.Error("counter handle not stable across lookups")
	}
	g := r.Gauge("inflight")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Errorf("gauge: %d, want 4", g.Value())
	}
	h := r.Histogram("moves")
	for _, v := range []int64{1, 10, 11, 1000} {
		h.Observe(v)
	}
	if r.Histogram("moves") != h {
		t.Error("histogram handle not stable across lookups")
	}
	// Values below 32 are their own sketch buckets, so the low quantiles
	// are exact; 1000 is the max, which clamps the top bucket's bound.
	want := HistogramSnapshot{Count: 4, Sum: 1022, Min: 1, Max: 1000, P50: 10, P90: 1000, P99: 1000}
	if s := h.Snapshot(); s != want {
		t.Errorf("histogram snapshot %+v, want %+v", s, want)
	}
}

// TestNilRegistryIsNoOp guards the disabled path: a nil registry hands
// out nil handles whose every method is a no-op, and none of it panics.
func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Counter("x").Add(5)
	r.Gauge("y").Set(3)
	r.Histogram("z").Observe(9)
	if r.Counter("x").Value() != 0 || r.Gauge("y").Value() != 0 || r.Histogram("z").Snapshot().Count != 0 {
		t.Error("nil metrics should read as zero")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("nil registry WriteJSON: %v", err)
	}
}

// TestNilRunIsAllocationFree guards the tentpole guarantee: with
// telemetry disabled (a nil *Run), every collection entry point is a
// zero-allocation no-op.
func TestNilRunIsAllocationFree(t *testing.T) {
	var r *Run
	allocs := testing.AllocsPerRun(100, func() {
		r.CountMove(PhaseMapDraw)
		r.CountAccess(PhaseOrder)
		r.CountWrite(PhaseAgentReduce)
		r.CountErase(PhaseNodeReduce)
		sp := r.StartSpan(0, "x", PhaseMapDraw)
		sp.End()
		r.Instant(0, "y", PhaseNone, 0)
	})
	if allocs != 0 {
		t.Errorf("nil-Run telemetry allocated %.1f times per run, want 0", allocs)
	}
}

func TestRunCountersAndSpans(t *testing.T) {
	r := NewRun()
	r.CountMove(PhaseMapDraw)
	r.CountMove(PhaseMapDraw)
	r.CountAccess(PhaseOrder)
	r.CountWrite(PhaseAgentReduce)
	r.CountErase(PhaseNodeReduce)
	r.CountMove(NumPhases + 3) // out of range clamps to PhaseNone
	tot := r.Totals()
	if tot.Moves[PhaseMapDraw] != 2 || tot.Accesses[PhaseOrder] != 1 ||
		tot.Writes[PhaseAgentReduce] != 1 || tot.Erases[PhaseNodeReduce] != 1 {
		t.Errorf("totals wrong: %+v", tot)
	}
	if tot.Moves[PhaseNone] != 1 {
		t.Errorf("out-of-range phase should clamp to none, got %+v", tot.Moves)
	}

	sp := r.StartSpan(2, "map-drawing", PhaseMapDraw)
	time.Sleep(time.Millisecond)
	sp.End()
	r.Instant(2, "move", PhaseMapDraw, r.Since())
	spans, instants := r.Spans(), r.Instants()
	if len(spans) != 1 || len(instants) != 1 {
		t.Fatalf("spans/instants: %d/%d, want 1/1", len(spans), len(instants))
	}
	s := spans[0]
	if s.Track != 2 || s.Name != "map-drawing" || s.Phase != PhaseMapDraw {
		t.Errorf("span record wrong: %+v", s)
	}
	if s.End <= s.Start {
		t.Errorf("span must have positive duration: %+v", s)
	}
	if instants[0].At < s.End {
		t.Errorf("instant recorded before the span ended: %+v vs %+v", instants[0], s)
	}
}

func TestRunConcurrentUse(t *testing.T) {
	r := NewRun()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.CountMove(PhaseMapDraw)
				if i%100 == 0 {
					sp := r.StartSpan(w, "tick", PhaseOrder)
					sp.End()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Totals().Moves[PhaseMapDraw]; got != 8000 {
		t.Errorf("concurrent moves: %d, want 8000", got)
	}
	if got := len(r.Spans()); got != 80 {
		t.Errorf("concurrent spans: %d, want 80", got)
	}
}

func TestRegistryJSONAndHTTP(t *testing.T) {
	r := NewRegistry()
	r.Counter("campaign_runs_total").Add(3)
	r.Gauge("campaign_inflight").Set(2)
	r.Histogram("run_moves").Observe(50)

	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("content type %q", ct)
	}
	var got struct {
		Counters   map[string]int64             `json:"counters"`
		Gauges     map[string]int64             `json:"gauges"`
		Histograms map[string]HistogramSnapshot `json:"histograms"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if got.Counters["campaign_runs_total"] != 3 || got.Gauges["campaign_inflight"] != 2 {
		t.Errorf("metrics round-trip wrong: %+v", got)
	}
	h := got.Histograms["run_moves"]
	if h.Count != 1 || h.Sum != 50 || h.P50 != 50 || h.P99 != 50 {
		t.Errorf("histogram round-trip wrong: %+v", h)
	}
}

// TestServeHTTPEmptyRegistry: a scrape of a registry with no metrics yet
// yields the full envelope with empty (not null) maps — clients index into
// them without nil checks.
func TestServeHTTPEmptyRegistry(t *testing.T) {
	rec := httptest.NewRecorder()
	NewRegistry().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/metrics", nil))
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"counters", "gauges", "histograms"} {
		v, ok := raw[key]
		if !ok {
			t.Fatalf("empty snapshot missing %q: %s", key, rec.Body.String())
		}
		if string(v) == "null" {
			t.Fatalf("%q is null, want {}", key)
		}
	}
}

// TestServeHTTPConcurrentScrape: scraping while writers mutate counters,
// gauges and histograms is safe (meaningful under -race) and every scrape
// returns parseable JSON.
func TestServeHTTPConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				r.Counter("hits").Inc()
				r.Gauge("inflight").Set(int64(i))
				r.Histogram("lat").Observe(int64(i % 100))
				select {
				case <-stop:
					return
				default:
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		rec := httptest.NewRecorder()
		r.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/metrics", nil))
		if rec.Code != 200 {
			t.Fatalf("scrape %d: status %d", i, rec.Code)
		}
		var got Snapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("scrape %d: bad JSON: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if r.Counter("hits").Value() == 0 {
		t.Fatal("writers never ran")
	}
}

func TestPhaseNames(t *testing.T) {
	seen := map[string]bool{}
	for p := Phase(0); p < NumPhases; p++ {
		name := p.String()
		if name == "" || name == "invalid" || seen[name] {
			t.Errorf("phase %d has bad or duplicate name %q", p, name)
		}
		seen[name] = true
	}
	if (NumPhases + 1).String() != "invalid" {
		t.Error("out-of-range phase should stringify as invalid")
	}
	if got := PhaseNames(); len(got) != int(NumPhases) || got[PhaseMapDraw] != "mapdraw" {
		t.Errorf("PhaseNames: %v", got)
	}
}
