// Package serve wraps the repository's library planes — centralized
// analysis, single elections, multi-seed campaigns — behind a long-running
// HTTP/JSON daemon (cmd/electd). The CLIs stay; this is the
// election-as-a-service surface the ROADMAP's production track calls for.
//
// Endpoints:
//
//	POST /v1/analyze        solvability verdict (gcd, class structure,
//	                        Cayley recognition, Theorem 2.1) of an instance
//	POST /v1/elect          one simulated election run; returns the run
//	                        manifest plus a replay-artifact handle
//	POST /v1/campaign       a full campaign, streamed as chunked JSONL
//	                        (one line per run, trailing summary)
//	GET  /v1/artifacts/{id} replay bundle of a previous /v1/elect run
//	GET  /healthz           liveness + drain state
//	GET  /debug/metrics     the telemetry registry as JSON
//	GET  /debug/metrics/stream  the registry as a server-sent-event
//	                        stream (?interval_ms cadence, ?n to bound)
//	GET  /debug/live        single-file live operator dashboard
//	GET  /debug/requests    recent slow/failed requests from the trace ring
//
// Production concerns are the point of the package:
//
//   - The analysis cache is shared across every request and keyed by the
//     instance's iso-canonical form, with singleflight coalescing — N
//     concurrent clients asking about isomorphic instances pay for one
//     elect.Analyze, which continues from the key's search — and an LRU
//     byte bound (internal/analysiscache).
//   - A bounded in-daemon worker pool backpressures heavy endpoints:
//     requests wait at most QueueTimeout for a slot, then get 503 with
//     Retry-After rather than piling goroutines up.
//   - Every request runs under a deadline; campaign streams additionally
//     abort mid-run when the client disconnects, via the context plumbing
//     through campaign.ExecuteRunsContext and sim.Config.Context.
//   - Graceful drain: StartDrain flips /healthz to 503 (load balancers
//     stop routing), in-flight requests finish, and CancelRuns aborts
//     whatever is still running when the drain budget expires.
package serve

import (
	"context"
	"log/slog"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/analysiscache"
	"repro/internal/telemetry"
)

// Config tunes the daemon. The zero value is production-usable.
type Config struct {
	// Workers bounds the pool of heavy-request slots (default GOMAXPROCS).
	// One analyze or elect request holds one slot; a campaign request holds
	// one slot and parallelizes its runs internally up to the same bound.
	Workers int
	// QueueTimeout is how long a request waits for a pool slot before the
	// server sheds it with 503 (default 2s).
	QueueTimeout time.Duration
	// RequestTimeout is the per-request deadline of /v1/analyze and
	// /v1/elect (default 30s).
	RequestTimeout time.Duration
	// CampaignTimeout is the per-request deadline of /v1/campaign
	// (default 5m — campaigns are long by design).
	CampaignTimeout time.Duration
	// RunTimeout is the per-run simulation watchdog (default 30s).
	RunTimeout time.Duration
	// MaxCampaignRuns bounds the work list one campaign request may expand
	// to (default 100000).
	MaxCampaignRuns int
	// CacheMaxBytes bounds the shared analysis cache
	// (default analysiscache.DefaultMaxBytes).
	CacheMaxBytes int64
	// MaxArtifacts bounds the replay-artifact store (default 1024; the
	// oldest bundle is dropped past it).
	MaxArtifacts int
	// Metrics is the registry mounted at /debug/metrics (default: fresh).
	Metrics *telemetry.Registry
	// Analyze overrides the analysis function (tests inject counting or
	// blocking stand-ins; nil = elect's analysis, continued from the
	// cache key's canonical search).
	Analyze analysiscache.AnalyzeFunc
	// SlowRequest is the duration past which a successful request is
	// recorded in the /debug/requests trace ring (default 500ms).
	SlowRequest time.Duration
	// TraceRing bounds the /debug/requests ring of recent slow/failed
	// request traces (default 256).
	TraceRing int
	// AccessLog, when set, receives one structured line per request with
	// the request ID, status, outcome and latency (nil = no access log).
	AccessLog *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 2 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.CampaignTimeout <= 0 {
		c.CampaignTimeout = 5 * time.Minute
	}
	if c.RunTimeout <= 0 {
		c.RunTimeout = 30 * time.Second
	}
	if c.MaxCampaignRuns <= 0 {
		c.MaxCampaignRuns = 100_000
	}
	if c.MaxArtifacts <= 0 {
		c.MaxArtifacts = 1024
	}
	if c.Metrics == nil {
		c.Metrics = telemetry.NewRegistry()
	}
	if c.SlowRequest <= 0 {
		c.SlowRequest = DefaultSlowRequest
	}
	if c.TraceRing <= 0 {
		c.TraceRing = DefaultTraceRing
	}
	return c
}

// Server is the election daemon: share-everything request handlers over
// one analysis cache, one metrics registry, one worker pool. Safe for
// concurrent use; create with New.
type Server struct {
	cfg       Config
	cache     *analysiscache.Cache
	metrics   *telemetry.Registry
	pool      chan struct{}
	artifacts *artifactStore
	traces    *traceRing
	mux       *http.ServeMux
	started   time.Time

	// baseCtx parents every run the server starts; CancelRuns cancels it
	// (the drain deadline's hammer). draining flips /healthz to 503.
	baseCtx    context.Context
	cancelRuns context.CancelFunc
	draining   atomic.Bool
	inflight   atomic.Int64
}

// New builds a Server from cfg (zero value ok).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg: cfg,
		cache: analysiscache.New(analysiscache.Config{
			Analyze:   cfg.Analyze,
			Canonical: true,
			MaxBytes:  cfg.CacheMaxBytes,
		}),
		metrics:    cfg.Metrics,
		pool:       make(chan struct{}, cfg.Workers),
		artifacts:  newArtifactStore(cfg.MaxArtifacts),
		traces:     newTraceRing(cfg.TraceRing),
		mux:        http.NewServeMux(),
		started:    time.Now(),
		baseCtx:    ctx,
		cancelRuns: cancel,
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /v1/elect", s.handleElect)
	s.mux.HandleFunc("POST /v1/campaign", s.handleCampaign)
	s.mux.HandleFunc("GET /v1/artifacts/{id}", s.handleArtifact)
	s.mux.Handle("GET /debug/metrics", s.metrics)
	s.mux.Handle("GET /debug/metrics/stream", s.metrics.StreamHandler())
	s.mux.Handle("GET /debug/live", telemetry.DashboardHandler())
	s.mux.HandleFunc("GET /debug/requests", s.handleRequests)
	return s
}

// ServeHTTP makes the Server an http.Handler. Every request runs inside
// a span: it gets a request ID (the client's X-Request-ID when sane,
// generated otherwise) that is echoed in the response header and carried
// through the context into campaign/elect runs, and on completion the
// span is classified, counted, retained in the /debug/requests ring when
// noteworthy, and access-logged.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	s.metrics.Gauge("serve_inflight").Set(s.inflight.Load())
	sp := &span{id: requestID(r), start: time.Now()}
	ctx := telemetry.WithRequestID(r.Context(), sp.id)
	ctx = context.WithValue(ctx, spanKey{}, sp)
	r = r.WithContext(ctx)
	w.Header().Set("X-Request-ID", sp.id)
	rec := &statusRecorder{ResponseWriter: w}
	s.mux.ServeHTTP(rec, r)
	dur := time.Since(sp.start)
	s.metrics.Histogram("serve_request_us").Observe(int64(dur / time.Microsecond))
	s.metrics.Counter("serve_requests_total").Inc()
	s.finishTrace(r, sp, rec, dur)
	s.inflight.Add(-1)
	s.metrics.Gauge("serve_inflight").Set(s.inflight.Load())
}

// Cache exposes the shared analysis cache (cmd/electd wires campaign-side
// consumers through it; tests assert on its stats).
func (s *Server) Cache() *analysiscache.Cache { return s.cache }

// Metrics exposes the registry mounted at /debug/metrics.
func (s *Server) Metrics() *telemetry.Registry { return s.metrics }

// StartDrain flips the server into draining mode: /healthz starts
// answering 503 so load balancers stop routing, while in-flight requests
// keep running. Call before http.Server.Shutdown.
func (s *Server) StartDrain() {
	s.draining.Store(true)
	s.metrics.Counter("serve_drains_total").Inc()
}

// CancelRuns aborts every in-flight simulation and campaign the server
// started — the hammer for a drain deadline that in-flight work outlived.
// The server cannot start new runs afterwards.
func (s *Server) CancelRuns() { s.cancelRuns() }

// runCtx derives a request's execution context: bounded by the deadline
// and additionally canceled when the server's run context dies (drain
// hammer). The request's own context is the parent, so a dropped client
// connection aborts the work too.
func (s *Server) runCtx(r *http.Request, d time.Duration) (context.Context, context.CancelFunc) {
	if sp := spanFrom(r.Context()); sp != nil {
		sp.deadlineMS = float64(d) / float64(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	stop := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// acquire takes a worker-pool slot, waiting at most QueueTimeout, and
// records the wait in the request span.
func (s *Server) acquire(ctx context.Context) bool {
	start := time.Now()
	defer func() {
		if sp := spanFrom(ctx); sp != nil {
			sp.queueWaitMS = float64(time.Since(start)) / float64(time.Millisecond)
		}
	}()
	timer := time.NewTimer(s.cfg.QueueTimeout)
	defer timer.Stop()
	select {
	case s.pool <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	case <-timer.C:
		return false
	}
}

func (s *Server) release() { <-s.pool }

// publishCacheStats mirrors the cache counters into gauges so the
// /debug/metrics snapshot (and the load generator reading it) sees hit,
// coalesce and eviction rates without a separate endpoint.
func (s *Server) publishCacheStats() {
	st := s.cache.Stats()
	s.metrics.Gauge("serve_cache_hits").Set(st.Hits)
	s.metrics.Gauge("serve_cache_coalesced").Set(st.Coalesced)
	s.metrics.Gauge("serve_cache_misses").Set(st.Misses)
	s.metrics.Gauge("serve_cache_evictions").Set(st.Evictions)
	s.metrics.Gauge("serve_cache_entries").Set(int64(st.Entries))
	s.metrics.Gauge("serve_cache_size_bytes").Set(st.SizeBytes)
}
