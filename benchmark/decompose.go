package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/elect"
	"repro/internal/graph"
	"repro/internal/labeling"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// graphInput is one (graph, homes) pair a decomposition pass times.
type graphInput struct {
	name  string
	g     *graph.Graph
	homes []int
}

// keyTimes times key on each input in turn until budget is spent: the
// cache key a lookup computes, measured by calling it from outside. The
// pass is one span; inputs may number one per request.
func keyTimes(rc *recorder, inputs []graphInput, key func(*graph.Graph, []int) string, budget time.Duration) []float64 {
	var out []float64
	sp := rc.span(trackDecompose, fmt.Sprintf("cache key of %d lookups", len(inputs)))
	defer sp.End()
	start := time.Now()
	for _, in := range inputs {
		if time.Since(start) > budget {
			break
		}
		t := time.Now()
		key(in.g, in.homes)
		out = append(out, ms(time.Since(t)))
	}
	return out
}

// layerTimes is the decomposition pass: on each input in turn, until
// budget is spent, it times the calls elect.AnalyzeCtx makes —
// COMPUTE & ORDER, then (below order.LargeThreshold) the Cayley test and,
// on simple graphs, the Theorem 2.1 search — and sets their percentiles.
func layerTimes(s *section, rc *recorder, inputs []graphInput, budget time.Duration) error {
	var ord, cayley, thm21 []float64
	start := time.Now()
	for _, in := range inputs {
		if time.Since(start) > budget {
			break
		}
		colors := elect.BlackColors(in.g.N(), in.homes)
		sp := rc.span(trackDecompose, "order.ComputeAndOrderCtx "+in.name)
		t := time.Now()
		_, err := order.ComputeAndOrderCtx(context.Background(), in.g, colors, order.Direct)
		ord = append(ord, ms(time.Since(t)))
		sp.End()
		if err != nil {
			return fmt.Errorf("order %s: %w", in.name, err)
		}
		if in.g.N() >= order.LargeThreshold {
			continue
		}
		sp = rc.span(trackDecompose, "elect.CayleyTranslationCount "+in.name)
		t = time.Now()
		elect.CayleyTranslationCount(in.g, colors, 0) //nolint:errcheck // an undecided test is timed like a decided one
		cayley = append(cayley, ms(time.Since(t)))
		sp.End()
		if !in.g.IsSimple() {
			continue
		}
		sp = rc.span(trackDecompose, "labeling.ExistsSymmetricLabeling "+in.name)
		t = time.Now()
		labeling.ExistsSymmetricLabeling(in.g, colors, 0) //nolint:errcheck // as in elect.AnalyzeCtx, a capped search is timed too
		thm21 = append(thm21, ms(time.Since(t)))
		sp.End()
	}
	s.figs.pct("order.compute_ms.p50", ord, 0.50)
	s.figs.pct("order.compute_ms.p99", ord, 0.99)
	s.figs.pct("group.cayley_ms.p50", cayley, 0.50)
	s.figs.pct("group.cayley_ms.p99", cayley, 0.99)
	s.figs.pct("labeling.thm21_ms.p50", thm21, 0.50)
	s.figs.pct("labeling.thm21_ms.p99", thm21, 0.99)
	return nil
}

// simRun is one ELECT run to re-run with phase telemetry.
type simRun struct {
	name  string
	g     *graph.Graph
	homes []int
	seed  int64
}

// phases re-runs a sample of a workload's ELECT runs one at a time
// through sim.Run with elect.Elect, each with its own telemetry.Run (the
// sim.Config.Telemetry seam), and sets the median per-run time spent in
// each protocol phase (summed over the run's agents) and moves made in
// it. It returns the process CPU per re-run.
func phases(s *section, rc *recorder, runs []simRun) (cpuMSPerRun float64, err error) {
	var spent, moves [telemetry.NumPhases][]float64
	probe := takeSnapshot()
	for _, r := range runs {
		tr := telemetry.NewRun()
		sp := rc.span(trackSim, fmt.Sprintf("sim.Run %s seed=%d", r.name, r.seed))
		_, err := sim.Run(sim.Config{
			Graph: r.g, Homes: r.homes, Seed: r.seed,
			Timeout: time.Minute, Telemetry: tr,
		}, elect.Elect(elect.Options{Ordering: order.Direct}))
		sp.End()
		if err != nil {
			return 0, fmt.Errorf("re-run %s seed %d: %w", r.name, r.seed, err)
		}
		var perPhase [telemetry.NumPhases]float64
		for _, span := range tr.Spans() {
			perPhase[span.Phase] += ms(span.End - span.Start)
		}
		tot := tr.Totals()
		for p := range perPhase {
			spent[p] = append(spent[p], perPhase[p])
			moves[p] = append(moves[p], float64(tot.Moves[p]))
		}
	}
	cpu := usageSince(probe).cpu
	for p := telemetry.PhaseMapDraw; p < telemetry.NumPhases; p++ {
		s.figs.pct("elect.phase_ms."+p.String(), spent[p], 0.5)
		s.figs.pct("elect.phase_moves."+p.String(), moves[p], 0.5)
	}
	return ratio(ms(cpu), float64(len(runs))), nil
}

// sample picks at most n items spread evenly over xs.
func sample[T any](xs []T, n int) []T {
	if len(xs) <= n {
		return xs
	}
	out := make([]T, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, xs[i*len(xs)/n])
	}
	return out
}
