package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/analysiscache"
)

// electEvery makes one request in electEvery a /v1/elect on serve-mix.
const electEvery = 20

// serveMix is electd's documented traffic at saturation: a closed loop of
// two clients over cmd/electload's instance pool, 19 /v1/analyze requests
// to every /v1/elect. After warm-up every analysis is a cache hit.
type serveMix struct {
	e    *env
	pool []instance
	want []string // reference verdict of each pool instance's original
	h    *harness
}

func newServeMix(e *env) (workload, error) {
	pool, err := electloadPool(rand.New(rand.NewSource(e.seed)))
	if err != nil {
		return nil, err
	}
	w := &serveMix{e: e, pool: pool, want: make([]string, len(pool))}
	for i := range pool {
		if w.want[i], err = reference(&pool[pool[i].group]); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// setup starts the server and warms the pool: every instance analyzed
// once and one election run.
func (w *serveMix) setup(rc *recorder) error {
	h, err := startServer(w.e, rc)
	if err != nil {
		return err
	}
	w.h = h
	for i := range w.pool {
		if rec, _ := h.analyzeOnce(fmt.Sprintf("sm-warm-%d", i), &w.pool[i]); rec.status != http.StatusOK {
			return fmt.Errorf("warm-up: %s", rec.fail)
		}
	}
	if rec := h.electOnce("sm-warm-elect", &w.pool[0], w.e.seed); rec.status != http.StatusOK {
		return fmt.Errorf("warm-up: %s", rec.fail)
	}
	return nil
}

func (w *serveMix) teardown() error { return w.h.close() }

// mix64 is splitmix64 over (seed, i): the seeded request sequence.
func mix64(seed int64, i int) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (w *serveMix) measure(d time.Duration, rc *recorder) (*section, error) {
	cache := w.h.srv.Cache()
	before := cache.Stats()
	probe := startSection()
	log, elapsed := closedLoop(d, math.MaxInt, rc != nil, func(c, seq int) reqRecord {
		i := int(mix64(w.e.seed, seq) % uint64(len(w.pool)))
		id := requestID("sm", c, seq)
		sp := rc.span(trackClient+c, "request "+id)
		defer sp.End()
		var rec reqRecord
		if seq%electEvery == electEvery-1 {
			rec = w.h.electOnce(id, &w.pool[i], w.e.seed<<32+int64(seq))
		} else {
			var verdict string
			rec, verdict = w.h.analyzeOnce(id, &w.pool[i])
			rec.checkVerdict(id, w.pool[i].name, verdict, w.want[i])
		}
		rec.inst = i
		return rec
	})
	s := newSection()
	s.elapsed, s.usage = elapsed, usageSince(probe)
	serveFigures(s, log, "sm", rc)
	if rc == nil {
		return s, nil
	}
	cacheFigures(s, before, cache.Stats())

	// Decomposition: the canonical key every lookup computes, once per
	// request, and a sample of the elections re-run with phase telemetry.
	graphs := make([]graphInput, len(w.pool))
	for i := range w.pool {
		g, homes, err := w.pool[i].build()
		if err != nil {
			return nil, err
		}
		graphs[i] = graphInput{name: w.pool[i].name, g: g, homes: homes}
	}
	var lookups []graphInput
	var runs []simRun
	var moves []float64
	var runMS, movesTotal float64
	for _, r := range log.recs {
		lookups = append(lookups, graphs[r.inst])
		if r.elect && r.fail == "" {
			in := graphs[r.inst]
			runs = append(runs, simRun{name: in.name, g: in.g, homes: in.homes, seed: r.seed})
			moves = append(moves, float64(r.moves))
			runMS += r.innerMS
			movesTotal += float64(r.moves)
		}
	}
	keys := keyTimes(rc, lookups, analysiscache.CanonicalKey, d)
	s.figs.pct("analysiscache.key_ms.p50", keys, 0.50)
	s.figs.pct("analysiscache.key_ms.p99", keys, 0.99)
	s.figs.pct("sim.moves_per_run.p50", moves, 0.5)
	s.figs.set("sim.ns_per_move", ratio(runMS*1e6, movesTotal))
	cpu, err := phases(s, rc, sample(runs, 64))
	if err != nil {
		return nil, err
	}
	s.figs.set("sim.cpu_ms_per_run", cpu)
	return s, nil
}

// analyzeCold is the same server and closed loop, but every request is a
// distinct instance, so every lookup misses and the analysis layers
// (order, iso, group, labeling) do the work.
type analyzeCold struct {
	e      *env
	corpus []instance
	// refs[i] is the reference verdict of corpus[i], computed when first
	// needed; a traced run's second section reuses the first's.
	refs []string
	warm []instance
	h    *harness
}

// coldRate is the analyze-cold throughput the corpus is sized for, in
// requests per second of the timed section: about twice what the server
// reaches on a two-CPU host. A server fast enough to run out of corpus
// ends its section early; every figure is per second or per request, so
// the shorter section still compares with a full one.
const coldRate = 1000

func newAnalyzeCold(e *env) (workload, error) {
	n := int(e.duration.Seconds()*coldRate) + 1
	gen := newColdGen(e.seed)
	corpus := make([]instance, 0, n)
	for i := 0; i < n; i++ {
		in, err := gen.next(i, !e.tiny)
		if err != nil {
			return nil, err
		}
		corpus = append(corpus, in)
	}
	warm, err := warmupInstances()
	if err != nil {
		return nil, err
	}
	return &analyzeCold{e: e, corpus: corpus, refs: make([]string, len(corpus)), warm: warm}, nil
}

// setup starts the server and warms it with instances of families the
// corpus never draws.
func (w *analyzeCold) setup(rc *recorder) error {
	h, err := startServer(w.e, rc)
	if err != nil {
		return err
	}
	w.h = h
	for i := range w.warm {
		if rec, _ := h.analyzeOnce(fmt.Sprintf("ac-warm-%d", i), &w.warm[i]); rec.status != http.StatusOK {
			return fmt.Errorf("warm-up: %s", rec.fail)
		}
	}
	return nil
}

func (w *analyzeCold) teardown() error { return w.h.close() }

func (w *analyzeCold) measure(d time.Duration, rc *recorder) (*section, error) {
	cache := w.h.srv.Cache()
	before := cache.Stats()
	mark := 0
	if rc != nil {
		mark = rc.analysisCount()
	}
	// verdicts[seq] is the verdict served for corpus[seq], "" when none was.
	verdicts := make([]string, len(w.corpus))
	probe := startSection()
	log, elapsed := closedLoop(d, len(w.corpus), rc != nil, func(c, seq int) reqRecord {
		in := &w.corpus[seq]
		id := requestID("ac", c, seq)
		if rc != nil {
			if g, homes, err := in.build(); err == nil {
				rc.expect(fingerprint(g, homes), id)
			}
		}
		sp := rc.span(trackClient+c, "request "+id)
		rec, verdict := w.h.analyzeOnce(id, in)
		sp.End()
		rec.inst = seq
		verdicts[seq] = verdict
		return rec
	})
	s := newSection()
	s.elapsed, s.usage = elapsed, usageSince(probe)
	after := cache.Stats()
	serveFigures(s, log, "ac", rc)

	// Outside the timed section: every served verdict against elect.Analyze
	// of the same instance, and one cache miss per request.
	if err := w.checkReferences(s, verdicts); err != nil {
		return nil, err
	}
	served := 0
	for _, v := range verdicts {
		if v != "" {
			served++
		}
	}
	if misses := after.Misses - before.Misses; misses != int64(served) {
		s.fail(fmt.Sprintf("cache misses %d, want one per served request (%d)", misses, served))
	}
	if rc == nil {
		return s, nil
	}
	cacheFigures(s, before, after)
	an := rc.analysesSince(mark)
	s.figs.pct("elect.analyze_ms.p50", an, 0.50)
	s.figs.pct("elect.analyze_ms.p99", an, 0.99)

	var inputs []graphInput
	for _, r := range log.recs {
		in := &w.corpus[r.inst]
		g, homes, err := in.build()
		if err != nil {
			return nil, err
		}
		inputs = append(inputs, graphInput{name: in.name, g: g, homes: homes})
	}
	keys := keyTimes(rc, inputs, analysiscache.CanonicalKey, d)
	s.figs.pct("analysiscache.key_ms.p50", keys, 0.50)
	s.figs.pct("analysiscache.key_ms.p99", keys, 0.99)
	return s, layerTimes(s, rc, inputs, d)
}

// checkReferences computes elect.Analyze of every served instance on
// `clients` goroutines and fails the section once for each served verdict
// that differs from it.
func (w *analyzeCold) checkReferences(s *section, verdicts []string) error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	wrong := make([][]string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := c; seq < len(verdicts); seq += clients {
				if verdicts[seq] == "" {
					continue
				}
				in := &w.corpus[seq]
				if w.refs[seq] == "" {
					var err error
					if w.refs[seq], err = reference(in); err != nil {
						errs[c] = fmt.Errorf("reference %s: %w", in.name, err)
						return
					}
				}
				if verdicts[seq] != w.refs[seq] {
					wrong[c] = append(wrong[c], fmt.Sprintf("request %d %s: verdict %s, want %s", seq, in.name, verdicts[seq], w.refs[seq]))
				}
			}
		}(c)
	}
	wg.Wait()
	for _, msgs := range wrong {
		for _, msg := range msgs {
			s.fail(msg)
		}
	}
	return errors.Join(errs...)
}
