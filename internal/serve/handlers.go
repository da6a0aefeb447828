package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/campaign"
)

// maxBodyBytes bounds request bodies: explicit edge lists for graphs in
// the thousands of nodes fit comfortably, abusive payloads do not.
const maxBodyBytes = 8 << 20

// writeJSON writes v as the response body with the given status, compact
// and newline-terminated.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // a failed response write has no recovery
}

// writeError writes the JSON error envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// decodeBody decodes the request body into v with a size bound.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// statusForRunError maps an execution error to an HTTP status: deadline
// and drain cancellations are the server's fault (or decision), the rest
// of the campaign path's errors are bad requests (unknown protocol,
// malformed strategy, invalid placement).
func statusForRunError(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := Health{
		Status:   "ok",
		UptimeMS: float64(time.Since(s.started)) / float64(time.Millisecond),
		Inflight: s.inflight.Load(),
		Draining: s.draining.Load(),
	}
	status := http.StatusOK
	if h.Draining {
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.metrics.Counter("serve_analyze_total").Inc()
	var req InstanceSpec
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "analyze: %v", err)
		return
	}
	g, name, err := req.Build()
	if err != nil {
		writeError(w, http.StatusBadRequest, "analyze: %v", err)
		return
	}
	ctx, cancel := s.runCtx(r, s.cfg.RequestTimeout)
	defer cancel()
	if !s.acquire(ctx) {
		s.shed(w, r, "analyze")
		return
	}
	defer s.release()

	start := time.Now()
	an, cached, err := s.cache.Get(ctx, g, req.Homes)
	if err != nil {
		if ctx.Err() != nil {
			err = ctx.Err()
		}
		writeError(w, statusForRunError(err), "analyze: %v", err)
		return
	}
	s.publishCacheStats()
	writeJSON(w, http.StatusOK, AnalyzeResponse{
		Instance: name, N: g.N(), M: g.M(), R: len(req.Homes),
		Sizes: an.Sizes, GCD: an.GCD, Solvable: an.GCD == 1,
		Cayley: an.Cayley, CayleyUndecided: !an.CayleyChecked, TranslationD: an.TranslationD,
		Thm21Checked: an.Thm21Checked, Impossible21: an.Impossible21,
		Cached:    cached,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	})
}

func (s *Server) handleElect(w http.ResponseWriter, r *http.Request) {
	s.metrics.Counter("serve_elect_total").Inc()
	var req ElectRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "elect: %v", err)
		return
	}
	g, name, err := req.Build()
	if err != nil {
		writeError(w, http.StatusBadRequest, "elect: %v", err)
		return
	}
	proto := campaign.ProtocolKind(req.Protocol)
	if proto == "" {
		proto = campaign.ProtoElect
	}
	run := campaign.Run{
		Instance: name, Family: req.Family, Size: req.Size,
		G: g, Homes: req.Homes, Seed: req.Seed,
		Protocol: proto, Strategy: req.Strategy, Fault: req.Fault,
	}
	if run.Fault != "" && run.Strategy == "" {
		// Fault injection rides on the serializing scheduler, mirroring the
		// campaign spec's default.
		run.Strategy = "random"
	}
	ctx, cancel := s.runCtx(r, s.cfg.RequestTimeout)
	defer cancel()
	if !s.acquire(ctx) {
		s.shed(w, r, "elect")
		return
	}
	defer s.release()

	rep, err := campaign.ExecuteRunsContext(ctx, []campaign.Run{run}, campaign.Options{
		Workers:    1,
		RunTimeout: s.cfg.RunTimeout,
		WakeAll:    req.WakeAll,
		Cache:      s.cache,
		Metrics:    s.metrics,
	})
	if err != nil {
		writeError(w, statusForRunError(err), "elect: %v", err)
		return
	}
	s.publishCacheStats()
	res := rep.Results[0]
	id := s.artifacts.put(req, res)
	writeJSON(w, http.StatusOK, ElectResponse{
		Result:      res,
		ArtifactID:  id,
		ArtifactURL: "/v1/artifacts/" + id,
	})
}

func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	s.metrics.Counter("serve_campaign_total").Inc()
	var req CampaignRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "campaign: %v", err)
		return
	}
	runs, err := req.Spec().Expand()
	if err != nil {
		writeError(w, http.StatusBadRequest, "campaign: %v", err)
		return
	}
	if len(runs) > s.cfg.MaxCampaignRuns {
		writeError(w, http.StatusRequestEntityTooLarge,
			"campaign: spec expands to %d runs, limit %d", len(runs), s.cfg.MaxCampaignRuns)
		return
	}
	ctx, cancel := s.runCtx(r, s.cfg.CampaignTimeout)
	defer cancel()
	if !s.acquire(ctx) {
		s.shed(w, r, "campaign")
		return
	}
	defer s.release()

	// Stream: JSONL over chunked transfer, one line per completed run in
	// completion order, flushed eagerly so slow campaigns report progress,
	// then one trailing summary (or error) line.
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	stream := &lineStream{w: w}

	rep, err := campaign.ExecuteRunsContext(ctx, runs, campaign.Options{
		Workers:    s.cfg.Workers,
		RunTimeout: s.cfg.RunTimeout,
		WakeAll:    req.WakeAll,
		Cache:      s.cache,
		Metrics:    s.metrics,
		JSONL:      stream,
	})
	s.publishCacheStats()
	switch {
	case err != nil && rep == nil:
		stream.writeLine(CampaignLine{Error: err.Error()})
	case err != nil:
		// Partial campaign (drain or disconnect): the per-run lines already
		// streamed; close with the error so clients know it is incomplete.
		stream.writeLine(CampaignLine{Error: err.Error()})
	default:
		stream.writeLine(CampaignLine{Summary: &rep.Summary})
	}
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	art, ok := s.artifacts.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "artifact %q not found (evicted or never created)", id)
		return
	}
	writeJSON(w, http.StatusOK, art)
}

// shed rejects a request the pool had no slot for within QueueTimeout.
func (s *Server) shed(w http.ResponseWriter, r *http.Request, endpoint string) {
	if sp := spanFrom(r.Context()); sp != nil {
		sp.shed = true
	}
	s.metrics.Counter("serve_shed_total").Inc()
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, "%s: server saturated, retry later", endpoint)
}

// lineStream adapts the campaign JSONL stream onto the response: raw
// RunResult lines from the campaign encoder are wrapped into CampaignLine
// envelopes ({"run": ...}) and flushed per line. Writes arrive serialized
// (the campaign JSONL writer holds a mutex), but chunk boundaries are not
// guaranteed to be line boundaries, so a partial-line buffer reassembles
// them.
type lineStream struct {
	w   http.ResponseWriter
	buf bytes.Buffer
}

// Write implements io.Writer for campaign.Options.JSONL.
func (ls *lineStream) Write(p []byte) (int, error) {
	ls.buf.Write(p)
	for {
		line, err := ls.buf.ReadBytes('\n')
		if err != nil {
			// Partial line: keep it buffered for the next write.
			ls.buf.Write(line)
			break
		}
		ls.w.Write([]byte(`{"run":`)) //nolint:errcheck
		ls.w.Write(bytes.TrimRight(line, "\n"))
		ls.w.Write([]byte("}\n"))
	}
	if f, ok := ls.w.(http.Flusher); ok {
		f.Flush()
	}
	return len(p), nil
}

// writeLine emits one envelope line directly (summary / error trailers).
func (ls *lineStream) writeLine(line CampaignLine) {
	data, err := json.Marshal(line)
	if err != nil {
		return
	}
	ls.w.Write(append(data, '\n')) //nolint:errcheck
	if f, ok := ls.w.(http.Flusher); ok {
		f.Flush()
	}
}
