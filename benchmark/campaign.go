package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/analysiscache"
	"repro/internal/campaign"
)

// campaignFamilies is the Makefile's acceptance spec: cycles and
// hypercubes, spread placement, three agents.
const campaignFamilies = "cycle:6,9,12,15,18,24;hypercube:3,4"

// campaignWorkload is campaign users' throughput: campaign.Execute in
// process on the acceptance spec, in batches of consecutive seeds, with
// MaxDelay 0, two workers, a private analysis cache per batch and the
// JSONL stream encoded to a discarding writer.
type campaignWorkload struct {
	e        *env
	families []campaign.FamilySpec
	// seedsPerBatch is the number of seeds one Execute call covers.
	seedsPerBatch int64
}

func newCampaign(e *env) (workload, error) {
	fams, err := campaign.ParseFamilies(campaignFamilies, "spread", 3)
	if err != nil {
		return nil, err
	}
	w := &campaignWorkload{e: e, families: fams, seedsPerBatch: 100}
	if e.tiny {
		w.seedsPerBatch = 2
	}
	return w, nil
}

// spec is batch b of the workload's seed sequence.
func (w *campaignWorkload) spec(b int64) campaign.Spec {
	from := w.e.seed*1_000_000_000 + b*w.seedsPerBatch + 1
	return campaign.Spec{
		Families: w.families,
		Seeds:    campaign.SeedRange{From: from, To: from + w.seedsPerBatch - 1},
		Protocol: campaign.ProtoElect,
	}
}

func (w *campaignWorkload) options(cache *analysiscache.Cache) campaign.Options {
	return campaign.Options{Workers: 2, MaxDelay: 0, JSONL: io.Discard, Cache: cache}
}

// setup expands the first batch's spec and runs one warm-up campaign of a
// single seed over every instance.
func (w *campaignWorkload) setup(*recorder) error {
	if _, err := w.spec(0).Expand(); err != nil {
		return err
	}
	warm := w.spec(0)
	warm.Seeds = campaign.SeedRange{From: -1, To: -1}
	rep, err := campaign.Execute(warm, w.options(nil))
	if err != nil {
		return err
	}
	if n := len(rep.Failures()); n > 0 {
		return fmt.Errorf("warm-up campaign: %d failed runs", n)
	}
	return nil
}

func (w *campaignWorkload) teardown() error { return nil }

func (w *campaignWorkload) measure(d time.Duration, rc *recorder) (*section, error) {
	s := newSection()
	var runs []simRun
	var moves []float64
	var serialMS, capacityMS, analysisMS, movesTotal float64
	var hits, misses int64
	retries, batches := 0, 0
	// Every batch runs the same instances; only the seeds differ.
	base, err := w.spec(0).Expand()
	if err != nil {
		return nil, err
	}
	inputs := make(map[string]graphInput)
	var names []string
	for _, r := range base {
		if _, ok := inputs[r.Instance]; !ok {
			inputs[r.Instance] = graphInput{name: r.Instance, g: r.G, homes: r.Homes}
			names = append(names, r.Instance)
		}
	}
	probe := startSection()
	start := time.Now()
	for b := int64(0); b == 0 || time.Since(start) < d; b++ {
		spec := w.spec(b)
		// A traced batch gets its own private cache whose analysis is
		// timed; an untraced one lets Execute build its private cache.
		var cache *analysiscache.Cache
		if rc != nil {
			cache = analysiscache.New(analysiscache.Config{Analyze: rc.analyzeFunc()})
		}
		sp := rc.span(trackCampaign, fmt.Sprintf("campaign.Execute seeds %d..%d", spec.Seeds.From, spec.Seeds.To))
		rep, err := campaign.Execute(spec, w.options(cache))
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", b, err)
		}
		sum := rep.Summary
		// Each run is checked as the summary counts it: no error, the
		// oracle's verdict, and moves within the Theorem 3.1 bound.
		for _, r := range rep.Results {
			msg := ""
			switch {
			case r.Err != "" || !r.OK:
				msg = fmt.Sprintf("run %s seed %d: outcome %s, expected %s %s", r.Instance, r.Seed, r.Outcome, r.Expected, r.Err)
			case r.Ratio > sum.RatioBound:
				msg = fmt.Sprintf("run %s seed %d: %d moves exceed %.0f·r·|E|", r.Instance, r.Seed, r.Moves, sum.RatioBound)
			}
			s.check(msg)
			if msg != "" {
				continue
			}
			s.latencyMS = append(s.latencyMS, r.ElapsedMS)
			moves = append(moves, float64(r.Moves))
			movesTotal += float64(r.Moves)
			if rc != nil {
				in := inputs[r.Instance]
				runs = append(runs, simRun{name: in.name, g: in.g, homes: in.homes, seed: r.Seed})
			}
		}
		s.ops += len(rep.Results)
		batches++
		serialMS += sum.SerialMS
		capacityMS += sum.WallMS * float64(sum.Workers)
		analysisMS += sum.AnalysisMS
		retries += sum.Retries
		hits += sum.CacheHits
		misses += sum.CacheMisses
	}
	s.elapsed = time.Since(start)
	s.usage = usageSince(probe)
	if rc == nil {
		return s, nil
	}
	s.figs.pct("campaign.run_ms.p50", s.latencyMS, 0.50)
	s.figs.pct("campaign.run_ms.p99", s.latencyMS, 0.99)
	s.figs.set("campaign.worker_busy_share", ratio(serialMS, capacityMS))
	s.figs.set("campaign.analysis_ms", ratio(analysisMS, float64(batches)))
	s.figs.set("analysiscache.hit_ratio", ratio(float64(hits), float64(hits+misses)))
	s.figs.set("campaign.retries", float64(retries))
	s.figs.pct("sim.moves_per_run.p50", moves, 0.5)
	s.figs.set("sim.ns_per_move", ratio(serialMS*1e6, movesTotal))
	s.figs.set("sim.cpu_ms_per_run", ratio(ms(s.usage.cpu), float64(s.ops)))
	an := rc.analysesSince(0)
	s.figs.pct("elect.analyze_ms.p50", an, 0.50)
	s.figs.pct("elect.analyze_ms.p99", an, 0.99)

	// The analysis layers on the spec's instances, and a sample of the
	// section's runs re-run with phase telemetry.
	var instances []graphInput
	for _, name := range names {
		instances = append(instances, inputs[name])
	}
	keys := keyTimes(rc, instances, analysiscache.StructuralKey, d)
	s.figs.pct("analysiscache.key_ms.p50", keys, 0.50)
	s.figs.pct("analysiscache.key_ms.p99", keys, 0.99)
	if err := layerTimes(s, rc, instances, d); err != nil {
		return nil, err
	}
	if _, err := phases(s, rc, sample(runs, 64)); err != nil {
		return nil, err
	}
	return s, nil
}
