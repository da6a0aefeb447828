package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry/sketch"
)

// TestStreamHandlerFraming is a golden test for the SSE wire format: two
// events with ascending ids, each exactly "id:/event:/data:" lines and a
// blank separator, with the data line decoding to the registry snapshot.
func TestStreamHandlerFraming(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs_total").Add(42)
	r.Gauge("inflight").Set(3)
	r.Histogram("moves").Observe(25)

	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/debug/metrics/stream?n=2&interval_ms=100", nil)
	r.StreamHandler().ServeHTTP(rec, req)

	if rec.Code != 200 {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	if cc := rec.Header().Get("Cache-Control"); cc != "no-cache" {
		t.Fatalf("Cache-Control = %q, want no-cache", cc)
	}

	events := strings.Split(strings.TrimRight(rec.Body.String(), "\n"), "\n\n")
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2:\n%s", len(events), rec.Body.String())
	}
	for i, ev := range events {
		lines := strings.Split(ev, "\n")
		if len(lines) != 3 {
			t.Fatalf("event %d has %d lines, want 3 (id/event/data):\n%s", i, len(lines), ev)
		}
		if want := "id: " + string(rune('1'+i)); lines[0] != want {
			t.Errorf("event %d id line = %q, want %q", i, lines[0], want)
		}
		if lines[1] != "event: metrics" {
			t.Errorf("event %d type line = %q, want %q", i, lines[1], "event: metrics")
		}
		data, ok := strings.CutPrefix(lines[2], "data: ")
		if !ok {
			t.Fatalf("event %d data line = %q, want data: prefix", i, lines[2])
		}
		var snap Snapshot
		if err := json.Unmarshal([]byte(data), &snap); err != nil {
			t.Fatalf("event %d data is not JSON: %v", i, err)
		}
		if snap.Counters["runs_total"] != 42 || snap.Gauges["inflight"] != 3 {
			t.Errorf("event %d snapshot = %+v, want runs_total=42 inflight=3", i, snap)
		}
		if h := snap.Histograms["moves"]; h.Count != 1 || h.Sum != 25 {
			t.Errorf("event %d histogram = %+v, want count=1 sum=25", i, h)
		}
	}
}

func TestStreamHandlerBadParams(t *testing.T) {
	r := NewRegistry()
	for _, q := range []string{"?interval_ms=abc", "?n=-1", "?n=x"} {
		rec := httptest.NewRecorder()
		r.StreamHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/stream"+q, nil))
		if rec.Code != 400 {
			t.Errorf("query %q: status = %d, want 400", q, rec.Code)
		}
	}
}

func TestStreamHandlerNilRegistry(t *testing.T) {
	var r *Registry
	rec := httptest.NewRecorder()
	r.StreamHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/stream?n=1", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"counters":{}`) {
		t.Fatalf("nil registry should stream empty snapshot, got:\n%s", rec.Body.String())
	}
}

func TestDashboardHandler(t *testing.T) {
	rec := httptest.NewRecorder()
	DashboardHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/live", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("Content-Type = %q, want text/html", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{"EventSource", "/debug/metrics/stream", "histograms", "hg.p99", "campaign_run_moves"} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard HTML missing %q", want)
		}
	}
	if strings.Contains(body, "http://") || strings.Contains(body, "https://") {
		t.Error("dashboard must be self-contained: found an external URL")
	}
}

// TestConcurrentScrape: one goroutine scrapes continuously while others
// register and update the same names. Run under -race; correctness here
// is "no race, no panic, snapshots internally consistent".
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			names := []string{"shared", "churn"}
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				n := names[i%len(names)]
				r.Counter(n).Inc()
				r.Gauge(n + "_g").Set(int64(i))
				r.Histogram(n + "_h").Observe(int64(i % 10))
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		snap := r.Snapshot()
		if snap.Counters == nil || snap.Gauges == nil || snap.Histograms == nil {
			t.Fatal("snapshot with nil maps")
		}
		rec := httptest.NewRecorder()
		r.StreamHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/s?n=1", nil))
		if rec.Code != 200 {
			t.Fatalf("scrape %d: status %d", i, rec.Code)
		}
	}
	close(done)
	wg.Wait()
}

// TestHistogramConcurrentObserve: several goroutines observe into one
// histogram while another scrapes it. Every scrape must be a consistent
// summary (min ≤ p50 ≤ p90 ≤ p99 ≤ max), and once the writers finish the
// count and sum are exact. Meaningful under -race.
func TestHistogramConcurrentObserve(t *testing.T) {
	const writers, perWriter = 4, 5000
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := r.Histogram("lat_us")
			for i := 1; i <= perWriter; i++ {
				h.Observe(int64(i))
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	consistent := func(s HistogramSnapshot) bool {
		return s.Count == 0 || (s.Min <= s.P50 && s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.Max)
	}
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		if s := r.Snapshot().Histograms["lat_us"]; !consistent(s) {
			t.Fatalf("inconsistent scrape %+v", s)
		}
	}
	s := r.Histogram("lat_us").Snapshot()
	if s.Count != writers*perWriter || s.Sum != writers*perWriter*(perWriter+1)/2 {
		t.Fatalf("final count/sum %d/%d, want %d/%d", s.Count, s.Sum, writers*perWriter, writers*perWriter*(perWriter+1)/2)
	}
	if s.Min != 1 || s.Max != perWriter || !consistent(s) {
		t.Fatalf("final snapshot %+v", s)
	}
	// Each writer observed 1..perWriter, so the exact median is perWriter/2;
	// the sketch reports it within its relative error.
	if exact := int64(perWriter / 2); s.P50 < exact || float64(s.P50) > float64(exact)*(1+sketch.RelativeError) {
		t.Fatalf("p50 %d outside the sketch error of %d", s.P50, exact)
	}
}
