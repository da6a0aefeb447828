// Command electload is the open-loop load generator for electd: it fires a
// seeded mix of /v1/analyze and /v1/elect requests at a fixed request rate
// (arrivals are scheduled by the clock, not by completions, so a slow
// server accumulates in-flight requests instead of throttling the
// generator), measures per-request latency into a mergeable sketch
// histogram (O(1) memory at any sample count, percentiles within the
// documented ~3% sketch error), and watches the daemon's
// /debug/metrics/stream SSE feed over the run to report cache hit and
// coalesce rate deltas (falling back to polling /debug/metrics before
// and after when the stream is unavailable).
//
// Usage:
//
//	electload -addr localhost:8080 [-duration 10s] [-rate 200]
//	          [-seed 1] [-elect-frac 0.25] [-out BENCH_serve.json]
//
// The instance mix is deterministic in -seed: a pool of cycle, hypercube,
// and explicit-edge instances, where explicit instances are renumbered
// (isomorphic) copies of pool members — the daemon's iso-canonical cache
// key must coalesce them, and the reported hit+coalesce rate proves it.
//
// The output JSON (default BENCH_serve.json, the CI perf artifact) carries
// req/s achieved, error counts, latency p50/p90/p99, and the cache-rate
// delta. Exit is nonzero when any request errored or the server was
// unreachable.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lazyrand"
	"repro/internal/telemetry"
	"repro/internal/telemetry/sketch"
)

type instance struct {
	Family string   `json:"family,omitempty"`
	Size   int      `json:"size,omitempty"`
	N      int      `json:"n,omitempty"`
	Edges  [][2]int `json:"edges,omitempty"`
	Homes  []int    `json:"homes"`
	Seed   int64    `json:"seed,omitempty"`
}

// mix builds the deterministic instance pool: named-family instances plus
// renumbered explicit-edge copies of the cycles, which are isomorphic to
// their originals and must land on the same canonical cache entry.
func mix(rng *rand.Rand) []instance {
	var pool []instance
	for _, n := range []int{6, 9, 12, 18, 24} {
		pool = append(pool, instance{Family: "cycle", Size: n, Homes: []int{0, 1, n / 2}})
	}
	for _, d := range []int{3, 4} {
		pool = append(pool, instance{Family: "hypercube", Size: d, Homes: []int{0, 1}})
	}
	// Renumbered cycle copies: rotate node labels by a seeded offset.
	for _, n := range []int{6, 9, 12, 18, 24} {
		rot := 1 + rng.Intn(n-1)
		edges := make([][2]int, n)
		for i := 0; i < n; i++ {
			edges[i] = [2]int{(i + rot) % n, (i + 1 + rot) % n}
		}
		pool = append(pool, instance{
			N: n, Edges: edges,
			Homes: []int{rot % n, (1 + rot) % n, (n/2 + rot) % n},
		})
	}
	return pool
}

type benchOut struct {
	Addr        string  `json:"addr"`
	DurationSec float64 `json:"duration_sec"`
	TargetRate  float64 `json:"target_rate"`
	Requests    int64   `json:"requests"`
	Errors      int64   `json:"errors"`
	Shed        int64   `json:"shed"`
	ReqPerSec   float64 `json:"req_per_sec"`
	P50MS       float64 `json:"p50_ms"`
	P90MS       float64 `json:"p90_ms"`
	P99MS       float64 `json:"p99_ms"`
	// LatencySketchErr is the relative error bound of the percentile
	// sketch the latencies were folded into.
	LatencySketchErr float64 `json:"latency_sketch_err"`
	// Cache-rate deltas over the run, read from the daemon's
	// serve_cache_* gauges. CacheSource says how: "stream" when derived
	// from the first and last /debug/metrics/stream SSE snapshots,
	// "poll" when from /debug/metrics GETs before and after the run.
	CacheSource     string  `json:"cache_source"`
	StreamSnapshots int     `json:"stream_snapshots,omitempty"`
	CacheHits       int64   `json:"cache_hits"`
	CacheCoalesced  int64   `json:"cache_coalesced"`
	CacheMisses     int64   `json:"cache_misses"`
	CacheHitRate    float64 `json:"cache_hit_rate"`
	CoalesceRate    float64 `json:"coalesce_rate"`
}

// streamWatch tails /debug/metrics/stream for the duration of the load,
// keeping the first and last snapshots: their gauge difference is the
// run's cache-rate delta without the race a before/after poll has
// against still-draining requests.
type streamWatch struct {
	mu          sync.Mutex
	first, last telemetry.Snapshot
	n           int
}

// watch consumes SSE frames until ctx is canceled or the stream breaks.
// Best-effort by design: any error just leaves n at whatever was seen
// and the caller falls back to polling.
func (sw *streamWatch) watch(ctx context.Context, client *http.Client, base string) {
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/debug/metrics/stream?interval_ms=250", nil)
	if err != nil {
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var snap telemetry.Snapshot
		if err := json.Unmarshal([]byte(data), &snap); err != nil {
			continue
		}
		sw.mu.Lock()
		if sw.n == 0 {
			sw.first = snap
		}
		sw.last = snap
		sw.n++
		sw.mu.Unlock()
	}
}

// delta returns the gauge snapshots bracketing the run, when the stream
// yielded at least two.
func (sw *streamWatch) delta() (before, after map[string]int64, n int, ok bool) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.n < 2 {
		return nil, nil, sw.n, false
	}
	return sw.first.Gauges, sw.last.Gauges, sw.n, true
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "electload:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", "localhost:8080", "electd host:port")
		duration  = flag.Duration("duration", 10*time.Second, "load duration")
		rate      = flag.Float64("rate", 200, "target requests per second (open loop)")
		seed      = flag.Int64("seed", 1, "instance-mix seed")
		electFrac = flag.Float64("elect-frac", 0.25, "fraction of requests that are /v1/elect (rest /v1/analyze)")
		out       = flag.String("out", "BENCH_serve.json", "output JSON path")
	)
	flag.Parse()

	base := "http://" + *addr
	client := &http.Client{Timeout: 60 * time.Second}
	if err := waitHealthy(client, base, 10*time.Second); err != nil {
		return err
	}
	before, err := cacheGauges(client, base)
	if err != nil {
		return fmt.Errorf("metrics before: %w", err)
	}
	// Tail the SSE stream for the run; its first/last snapshots supersede
	// the polled before/after when the stream works.
	sw := &streamWatch{}
	streamCtx, stopStream := context.WithCancel(context.Background())
	defer stopStream()
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		sw.watch(streamCtx, &http.Client{}, base)
	}()

	rng := lazyrand.New(*seed)
	pool := mix(rng)
	interval := time.Duration(float64(time.Second) / *rate)

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		latencies = &sketch.Hist{} // microseconds; mutex-guarded
		requests  atomic.Int64
		errors    atomic.Int64
		shed      atomic.Int64
	)
	fire := func(in instance, elect bool) {
		defer wg.Done()
		path := "/v1/analyze"
		var body any = in
		if elect {
			path = "/v1/elect"
			body = in // instance fields embed into ElectRequest; Seed rides along
		}
		data, _ := json.Marshal(body)
		start := time.Now()
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(data))
		elapsedUS := int64(time.Since(start) / time.Microsecond)
		requests.Add(1)
		if err != nil {
			errors.Add(1)
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()              //nolint:errcheck
		switch {
		case resp.StatusCode == http.StatusServiceUnavailable:
			shed.Add(1) // load shedding is the server working as designed
		case resp.StatusCode != http.StatusOK:
			errors.Add(1)
			return
		}
		mu.Lock()
		latencies.Observe(elapsedUS)
		mu.Unlock()
	}

	start := time.Now()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var electSeed int64
	for time.Since(start) < *duration {
		<-ticker.C
		in := pool[rng.Intn(len(pool))]
		isElect := rng.Float64() < *electFrac
		if isElect {
			electSeed++
			in.Seed = electSeed
		}
		wg.Add(1)
		go fire(in, isElect)
	}
	wg.Wait()
	elapsed := time.Since(start)

	after, err := cacheGauges(client, base)
	if err != nil {
		return fmt.Errorf("metrics after: %w", err)
	}
	// Give the stream one more frame past the last completion, then
	// prefer its bracketing snapshots over the polled pair.
	time.Sleep(300 * time.Millisecond)
	stopStream()
	<-streamDone
	source := "poll"
	var streamN int
	if b, a, n, ok := sw.delta(); ok {
		before, after, source, streamN = b, a, "stream", n
	}

	res := benchOut{
		Addr:             *addr,
		DurationSec:      elapsed.Seconds(),
		TargetRate:       *rate,
		Requests:         requests.Load(),
		Errors:           errors.Load(),
		Shed:             shed.Load(),
		ReqPerSec:        float64(requests.Load()) / elapsed.Seconds(),
		P50MS:            float64(latencies.Quantile(0.50)) / 1000,
		P90MS:            float64(latencies.Quantile(0.90)) / 1000,
		P99MS:            float64(latencies.Quantile(0.99)) / 1000,
		LatencySketchErr: sketch.RelativeError,
		CacheSource:      source,
		StreamSnapshots:  streamN,
	}
	res.CacheHits = after["serve_cache_hits"] - before["serve_cache_hits"]
	res.CacheCoalesced = after["serve_cache_coalesced"] - before["serve_cache_coalesced"]
	res.CacheMisses = after["serve_cache_misses"] - before["serve_cache_misses"]
	if total := res.CacheHits + res.CacheCoalesced + res.CacheMisses; total > 0 {
		res.CacheHitRate = float64(res.CacheHits+res.CacheCoalesced) / float64(total)
		res.CoalesceRate = float64(res.CacheCoalesced) / float64(total)
	}

	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("electload: %d requests in %.1fs (%.1f req/s), p50 %.2fms p99 %.2fms (±%.1f%% sketch), "+
		"cache hit rate %.1f%% (coalesced %.1f%%, via %s), %d errors, %d shed → %s\n",
		res.Requests, res.DurationSec, res.ReqPerSec, res.P50MS, res.P99MS,
		100*sketch.RelativeError,
		100*res.CacheHitRate, 100*res.CoalesceRate, res.CacheSource, res.Errors, res.Shed, *out)
	if res.Errors > 0 {
		return fmt.Errorf("%d requests errored", res.Errors)
	}
	return nil
}

// waitHealthy polls /healthz until the daemon answers 200 or the budget
// runs out — electd may still be binding when the generator starts (CI
// starts both back to back).
func waitHealthy(client *http.Client, base string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()              //nolint:errcheck
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("server never became healthy: %w", err)
			}
			return fmt.Errorf("server never became healthy (last status %d)", resp.StatusCode)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// cacheGauges reads the serve_cache_* gauges from /debug/metrics.
func cacheGauges(client *http.Client, base string) (map[string]int64, error) {
	resp, err := client.Get(base + "/debug/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap struct {
		Gauges map[string]int64 `json:"gauges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	if snap.Gauges == nil {
		snap.Gauges = map[string]int64{}
	}
	return snap.Gauges, nil
}
