package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/analysiscache"
	"repro/internal/elect"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/telemetry"
)

// Tracks of the traced run's Chrome trace. A client or worker index is
// added to the base of its track.
const (
	trackClient    = 10
	trackServe     = 20
	trackAnalyze   = 30
	trackDecompose = 40
	trackCampaign  = 50
	trackSim       = 60
	trackBackend   = 70
)

// recorder holds a traced run in memory: every span the benchmark records
// around a call into a layer goes to one telemetry.Run, written out once
// as a Chrome trace when the run ends. It also keeps the joins the
// per-layer figures need: server spans and queue waits keyed by the
// X-Request-ID the generator set, and analysis durations. A nil recorder
// records nothing.
type recorder struct {
	run *telemetry.Run

	mu        sync.Mutex
	serveMS   map[string]float64 // request ID → serve-handler span
	queueMS   map[string]float64 // request ID → queue wait (access log)
	pending   map[uint64]string  // instance fingerprint → request ID
	analyzeMS []float64          // elect.AnalyzeCtx calls made by the cache
}

func newRecorder() *recorder {
	rc := &recorder{
		run:     telemetry.NewRun(),
		serveMS: make(map[string]float64),
		queueMS: make(map[string]float64),
		pending: make(map[uint64]string),
	}
	for i := 0; i < 2; i++ {
		rc.run.SetTrackName(trackClient+i, fmt.Sprintf("client %d", i))
		rc.run.SetTrackName(trackServe+i, fmt.Sprintf("serve (client %d)", i))
	}
	rc.run.SetTrackName(trackAnalyze, "elect.AnalyzeCtx (cache misses)")
	rc.run.SetTrackName(trackDecompose, "decomposition pass")
	rc.run.SetTrackName(trackCampaign, "campaign.Execute")
	rc.run.SetTrackName(trackSim, "sim.Run (ELECT phase sample)")
	return rc
}

// span opens a span on track; End it when the call returns.
func (rc *recorder) span(track int, name string) telemetry.ActiveSpan {
	if rc == nil {
		return telemetry.ActiveSpan{}
	}
	return rc.run.StartSpan(track, name, telemetry.PhaseNone)
}

// clientOf extracts the client index from a generated request ID
// ("<workload>-c<client>-<seq>").
func clientOf(id string) int {
	parts := strings.Split(id, "-c")
	if len(parts) < 2 {
		return 0
	}
	c, _, _ := strings.Cut(parts[len(parts)-1], "-")
	n, _ := strconv.Atoi(c)
	return n
}

// wrap returns h with a span around each request it serves, keyed by the
// request's X-Request-ID: the serve layer's whole time, from outside.
func (rc *recorder) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		sp := rc.span(trackServe+clientOf(id), "serve "+r.URL.Path+" "+id)
		start := time.Now()
		h.ServeHTTP(w, r)
		d := ms(time.Since(start))
		sp.End()
		rc.mu.Lock()
		rc.serveMS[id] = d
		rc.mu.Unlock()
	})
}

// accessLog is a slog.Handler for serve.Config.AccessLog that keeps each
// request's queue wait, keyed by request ID.
type accessLog struct{ rc *recorder }

func (a accessLog) Enabled(context.Context, slog.Level) bool { return true }

func (a accessLog) Handle(_ context.Context, r slog.Record) error {
	var id string
	var queue float64
	r.Attrs(func(at slog.Attr) bool {
		switch at.Key {
		case "id":
			id = at.Value.String()
		case "queue_ms":
			queue = at.Value.Float64()
		}
		return true
	})
	a.rc.mu.Lock()
	a.rc.queueMS[id] = queue
	a.rc.mu.Unlock()
	return nil
}

func (a accessLog) WithAttrs([]slog.Attr) slog.Handler { return a }
func (a accessLog) WithGroup(string) slog.Handler      { return a }

// fingerprint identifies an instance by its node and edge lists and homes,
// so an analysis the cache starts can be joined to the request that caused
// it: the server builds the same graph from the same request body.
func fingerprint(g *graph.Graph, homes []int) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, g.N(), homes, g.EdgeEndpoints())
	return h.Sum64()
}

// expect registers the request about to carry an instance.
func (rc *recorder) expect(fp uint64, id string) {
	rc.mu.Lock()
	rc.pending[fp] = id
	rc.mu.Unlock()
}

// analyzeFunc is the serve.Config.Analyze (and campaign cache) stand-in
// that times each real analysis the cache computes.
func (rc *recorder) analyzeFunc() analysiscache.AnalyzeFunc {
	return func(ctx context.Context, g *graph.Graph, homes []int) (*elect.Analysis, error) {
		rc.mu.Lock()
		id := rc.pending[fingerprint(g, homes)]
		rc.mu.Unlock()
		sp := rc.span(trackAnalyze, fmt.Sprintf("elect.AnalyzeCtx n=%d %s", g.N(), id))
		start := time.Now()
		an, err := elect.AnalyzeCtx(ctx, g, homes, order.Direct)
		d := ms(time.Since(start))
		sp.End()
		rc.mu.Lock()
		rc.analyzeMS = append(rc.analyzeMS, d)
		rc.mu.Unlock()
		return an, err
	}
}

// analysisCount is how many analyses have been timed so far.
func (rc *recorder) analysisCount() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return len(rc.analyzeMS)
}

// analysesSince returns the durations of the analyses timed after the
// first from.
func (rc *recorder) analysesSince(from int) []float64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return append([]float64(nil), rc.analyzeMS[from:]...)
}

// serveSpan returns the serve span and queue wait of a request.
func (rc *recorder) serveSpan(id string) (serveMS, queueMS float64, ok bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	s, ok1 := rc.serveMS[id]
	q, ok2 := rc.queueMS[id]
	return s, q, ok1 && ok2
}

// writeChromeTrace writes the run as Chrome trace_event JSON, which
// Perfetto opens, and returns the file's path.
func (rc *recorder) writeChromeTrace(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := telemetry.WriteChromeTrace(f, rc.run); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
