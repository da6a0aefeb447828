package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysiscache"
	"repro/internal/serve"
)

// clients is the closed loop's client count: each waits for its reply
// before sending the next request. Two, because the host has two CPUs.
const clients = 2

// harness is electd's server listening on loopback inside the benchmark
// process, plus the HTTP client the load generator shares.
type harness struct {
	srv  *serve.Server
	http *serve.HTTPServer
	base string
	tr   *http.Transport
	cl   *http.Client
}

// startServer brings the server up the way cmd/electd does. A traced run
// wraps the handler in a span per request and keeps each request's queue
// wait through the access-log seam.
func startServer(e *env, rc *recorder) (*harness, error) {
	cfg := serve.Config{}
	if rc != nil {
		cfg.Analyze = rc.analyzeFunc()
		cfg.AccessLog = slog.New(accessLog{rc})
	}
	if e.serveConfig != nil {
		e.serveConfig(&cfg)
	}
	srv := serve.New(cfg)
	var h http.Handler = srv
	if rc != nil {
		h = rc.wrap(h)
	}
	hs, err := serve.Listen("127.0.0.1:0", h, nil)
	if err != nil {
		return nil, err
	}
	hs.Start()
	tr := &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}
	return &harness{
		srv:  srv,
		http: hs,
		base: "http://" + hs.Addr(),
		tr:   tr,
		cl:   &http.Client{Transport: tr, Timeout: time.Minute},
	}, nil
}

// close drains the server and reports any error it hit while serving.
func (h *harness) close() error {
	h.tr.CloseIdleConnections()
	err := serve.Drain(h.http, h.srv, 10*time.Second, 2*time.Second)
	for e := range h.http.Err() {
		err = errors.Join(err, e)
	}
	return err
}

// post sends one request and reads the whole reply; rtt runs from send
// until the body has been read.
func (h *harness) post(path, id string, body []byte) (status int, reply []byte, rtt time.Duration, err error) {
	req, err := http.NewRequest(http.MethodPost, h.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", id)
	start := time.Now()
	resp, err := h.cl.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	reply, err = io.ReadAll(resp.Body)
	rtt = time.Since(start)
	resp.Body.Close()
	return resp.StatusCode, reply, rtt, err
}

// reqRecord is one request of a closed loop, with its output check.
type reqRecord struct {
	seq    int
	client int
	inst   int
	elect  bool
	rttMS  float64
	status int
	bytes  int
	// innerMS is the server-reported time of the layer below serve: the
	// time inside Cache.Get (analyze) or the run's own time (elect).
	innerMS float64
	moves   int64
	seed    int64
	fail    string
}

// loopLog is what a closed loop keeps of its requests: the latency of
// every request that passed its checks, by endpoint, every failed request
// and, when traced, every request. An untraced loop keeps eight bytes a
// passed request, so that the section's peak resident set measures the
// server rather than the generator's own records.
type loopLog struct {
	analyzeMS, electMS []float64
	failed             []reqRecord
	shed               int
	// recs is every request in sequence order; traced loops only.
	recs []reqRecord
}

func (l *loopLog) add(rec reqRecord, traced bool) {
	if rec.status == http.StatusServiceUnavailable {
		l.shed++
	}
	switch {
	case rec.fail != "":
		l.failed = append(l.failed, rec)
	case rec.elect:
		l.electMS = append(l.electMS, rec.rttMS)
	default:
		l.analyzeMS = append(l.analyzeMS, rec.rttMS)
	}
	if traced {
		l.recs = append(l.recs, rec)
	}
}

func (l *loopLog) merge(o *loopLog) {
	l.analyzeMS = append(l.analyzeMS, o.analyzeMS...)
	l.electMS = append(l.electMS, o.electMS...)
	l.failed = append(l.failed, o.failed...)
	l.shed += o.shed
	l.recs = append(l.recs, o.recs...)
}

// closedLoop runs the clients until d has passed or limit requests have
// been handed out; each calls do for its next request sequence number.
// It returns the log of the requests and the section's wall time, which
// runs until the last reply has been read.
func closedLoop(d time.Duration, limit int, traced bool, do func(client, seq int) reqRecord) (*loopLog, time.Duration) {
	var next atomic.Int64
	per := make([]loopLog, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < d {
				seq := int(next.Add(1) - 1)
				if seq >= limit {
					return
				}
				rec := do(c, seq)
				rec.seq, rec.client = seq, c
				per[c].add(rec, traced)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	log := &loopLog{}
	for c := range per {
		log.merge(&per[c])
	}
	sort.Slice(log.recs, func(i, j int) bool { return log.recs[i].seq < log.recs[j].seq })
	return log, elapsed
}

// requestID is the X-Request-ID the generator sets: workload, client and
// request sequence number.
func requestID(prefix string, client, seq int) string {
	return fmt.Sprintf("%s-c%d-%d", prefix, client, seq)
}

// analyzeOnce sends one /v1/analyze and returns its record and the
// verdict the reply carried; the caller checks the verdict.
func (h *harness) analyzeOnce(id string, in *instance) (rec reqRecord, verdict string) {
	status, reply, rtt, err := h.post("/v1/analyze", id, in.body)
	rec.rttMS, rec.status, rec.bytes = ms(rtt), status, len(reply)
	switch {
	case err != nil:
		rec.fail = fmt.Sprintf("%s %s: %v", id, in.name, err)
	case status != http.StatusOK:
		rec.fail = fmt.Sprintf("%s %s: status %d: %.120s", id, in.name, status, reply)
	default:
		var resp serve.AnalyzeResponse
		if err := json.Unmarshal(reply, &resp); err != nil {
			rec.fail = fmt.Sprintf("%s %s: decode: %v", id, in.name, err)
			break
		}
		rec.innerMS = resp.ElapsedMS
		verdict = responseVerdict(&resp)
	}
	return rec, verdict
}

// checkVerdict fails the record of request id when the verdict its reply
// carried is not want.
func (r *reqRecord) checkVerdict(id, name, got, want string) {
	if r.fail == "" && got != want {
		r.fail = fmt.Sprintf("%s %s: verdict %s, want %s", id, name, got, want)
	}
}

// electOnce sends one /v1/elect with protocol elect and checks ok.
func (h *harness) electOnce(id string, in *instance, seed int64) reqRecord {
	rec := reqRecord{elect: true, seed: seed}
	body, err := json.Marshal(serve.ElectRequest{InstanceSpec: in.spec, Seed: seed, Protocol: "elect"})
	if err != nil {
		rec.fail = err.Error()
		return rec
	}
	status, reply, rtt, err := h.post("/v1/elect", id, body)
	rec.rttMS, rec.status, rec.bytes = ms(rtt), status, len(reply)
	switch {
	case err != nil:
		rec.fail = fmt.Sprintf("%s elect %s: %v", id, in.name, err)
	case status != http.StatusOK:
		rec.fail = fmt.Sprintf("%s elect %s: status %d: %.120s", id, in.name, status, reply)
	default:
		var resp serve.ElectResponse
		if err := json.Unmarshal(reply, &resp); err != nil {
			rec.fail = fmt.Sprintf("%s elect %s: decode: %v", id, in.name, err)
			break
		}
		rec.innerMS, rec.moves = resp.Result.ElapsedMS, resp.Result.Moves
		if !resp.Result.OK {
			rec.fail = fmt.Sprintf("%s elect %s seed %d: ok=false outcome %s expected %s %s",
				id, in.name, seed, resp.Result.Outcome, resp.Result.Expected, resp.Result.Err)
		}
	}
	return rec
}

// serveFigures fills the section from a closed loop's log: latency, the
// per-endpoint split and, when traced, the serve layer's queue wait, self
// time and HTTP time, joined to the server's spans by the request IDs
// requestID(prefix, ...) generated.
func serveFigures(s *section, log *loopLog, prefix string, rc *recorder) {
	s.ops = len(log.analyzeMS) + len(log.electMS) + len(log.failed)
	s.attempted += len(log.analyzeMS) + len(log.electMS)
	for _, r := range log.failed {
		s.check(r.fail)
	}
	s.latencyMS = append(append([]float64(nil), log.analyzeMS...), log.electMS...)
	s.figs.pct("analyze_p50_ms", log.analyzeMS, 0.50)
	s.figs.pct("analyze_p99_ms", log.analyzeMS, 0.99)
	if len(log.electMS) > 0 {
		s.figs.pct("elect_p50_ms", log.electMS, 0.50)
		s.figs.pct("elect_p99_ms", log.electMS, 0.99)
	}
	if rc == nil {
		return
	}
	var queue, self, httpMS, inner, respBytes []float64
	for _, r := range log.recs {
		if r.fail != "" {
			continue
		}
		if !r.elect {
			inner = append(inner, r.innerMS)
			respBytes = append(respBytes, float64(r.bytes))
		}
		id := requestID(prefix, r.client, r.seq)
		serveMS, queueMS, ok := rc.serveSpan(id)
		if !ok {
			s.fail(id + ": no server span or access-log line for the request")
			continue
		}
		queue = append(queue, queueMS)
		self = append(self, serveMS-queueMS-r.innerMS)
		httpMS = append(httpMS, r.rttMS-serveMS)
	}
	s.figs.pct("serve.queue_wait_ms.p50", queue, 0.50)
	s.figs.pct("serve.queue_wait_ms.p99", queue, 0.99)
	s.figs.pct("serve.self_ms.p50", self, 0.50)
	s.figs.pct("serve.http_ms.p50", httpMS, 0.50)
	s.figs.set("serve.response_bytes.analyze", ratio(sum(respBytes), float64(len(respBytes))))
	s.figs.set("serve.shed", float64(log.shed))
	s.figs.pct("analysiscache.get_ms.p50", inner, 0.50)
}

// cacheFigures sets the cache's hit ratio and evictions over a section.
func cacheFigures(s *section, before, after analysiscache.Stats) {
	hits := (after.Hits + after.Coalesced) - (before.Hits + before.Coalesced)
	lookups := hits + after.Misses - before.Misses
	s.figs.set("analysiscache.hit_ratio", ratio(float64(hits), float64(lookups)))
	s.figs.set("analysiscache.evictions", float64(after.Evictions-before.Evictions))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
