package campaign

import (
	"math"
	"sort"
)

// maxTopViolations bounds Summary.TopViolations.
const maxTopViolations = 10

// ViolationCount is one entry of Summary.TopViolations: an
// invariant-violation signature ("code|instance|strategy") and the exact
// number of violations that carried it.
type ViolationCount struct {
	Signature string `json:"signature"`
	Count     int64  `json:"count"`
}

// summarize computes a campaign's Summary from its results. The pool-level
// facts the results do not carry are arguments: the worker count, the wall
// time, and the analysis cache's use over the campaign (hits include
// coalesced lookups). Everything else is a function of the results alone
// and does not depend on their order, so the summary cannot depend on how
// the workers interleaved. Percentiles are exact nearest-rank values.
func summarize(results []RunResult, bound float64, workers int, wallMS float64, hits, misses int64, analysisMS float64) Summary {
	s := Summary{
		Runs:        len(results),
		Workers:     workers,
		Outcomes:    map[string]int{},
		RatioBound:  bound,
		CacheHits:   hits,
		CacheMisses: misses,
		AnalysisMS:  analysisMS,
		WallMS:      wallMS,
	}
	var moves, accesses, crashed []int64
	var ratios []float64
	var serialNS int64
	phases := map[string]PhaseStat{}
	phaseMoves := map[string][]int64{}
	violations := map[string]int64{}
	addPhase := func(m map[string]int64, pick func(*PhaseStat) *int64) {
		for name, v := range m {
			st := phases[name]
			*pick(&st) += v
			phases[name] = st
		}
	}
	for _, r := range results {
		s.Outcomes[r.Outcome]++
		// Summing whole nanoseconds keeps SerialMS independent of the
		// order the results are folded in (float addition is not).
		serialNS += int64(math.Round(r.ElapsedMS * 1e6))
		for _, v := range r.Violations {
			violations[string(v.Code)+"|"+r.Instance+"|"+r.Strategy]++
		}
		if r.Outcome == "canceled" {
			// Cancellation is an environment decision: count it, keep it out
			// of the error/mismatch/percentile accounting (a never-started
			// run has Attempts 0, which would corrupt the retry count).
			s.Canceled++
			continue
		}
		s.Retries += r.Attempts - 1
		if len(r.Violations) > 0 {
			s.InvariantViolations++
		}
		if r.Fault != "" {
			s.FaultRuns++
			s.CrashedAgents += r.Crashed
			s.Takeovers += r.Takeovers
			s.FaultEvents += r.FaultEvents
			crashed = append(crashed, int64(r.Crashed))
		}
		if r.Err != "" {
			if r.Fault != "" {
				s.FaultErrors++
			} else {
				s.Errors++
			}
			if r.Aborted {
				s.Aborted++
			}
			continue
		}
		if !r.OK {
			s.Mismatches++
		}
		moves = append(moves, r.Moves)
		accesses = append(accesses, r.Accesses)
		ratios = append(ratios, r.Ratio)
		s.RatioMax = max(s.RatioMax, r.Ratio)
		if r.Ratio > bound {
			s.BoundViolations++
		}
		addPhase(r.PhaseMoves, func(st *PhaseStat) *int64 { return &st.Moves })
		addPhase(r.PhaseAccesses, func(st *PhaseStat) *int64 { return &st.Accesses })
		addPhase(r.PhaseWrites, func(st *PhaseStat) *int64 { return &st.Writes })
		addPhase(r.PhaseErases, func(st *PhaseStat) *int64 { return &st.Erases })
		for name, v := range r.PhaseMoves {
			phaseMoves[name] = append(phaseMoves[name], v)
		}
	}
	s.SerialMS = float64(serialNS) / 1e6
	if wallMS > 0 {
		s.SpeedupEst = s.SerialMS / wallMS
	}
	if hits+misses > 0 {
		s.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	s.MovesP50, s.MovesP90, s.MovesP99 = pctInt(moves, 50), pctInt(moves, 90), pctInt(moves, 99)
	s.AccessP50, s.AccessP90, s.AccessP99 = pctInt(accesses, 50), pctInt(accesses, 90), pctInt(accesses, 99)
	s.CrashedP50, s.CrashedP90 = pctInt(crashed, 50), pctInt(crashed, 90)
	s.RatioP50, s.RatioP90 = pctFloat(ratios, 50), pctFloat(ratios, 90)
	if len(phases) > 0 {
		s.Phases = make(map[string]PhaseStat, len(phases))
		for name, st := range phases {
			st.MovesP50 = pctInt(phaseMoves[name], 50)
			st.MovesP90 = pctInt(phaseMoves[name], 90)
			s.Phases[name] = st
		}
	}
	s.TopViolations = topViolations(violations)
	return s
}

// topViolations ranks violation signatures by count, highest first (ties
// by signature), capped at maxTopViolations; nil when there are none.
func topViolations(counts map[string]int64) []ViolationCount {
	if len(counts) == 0 {
		return nil
	}
	out := make([]ViolationCount, 0, len(counts))
	for sig, n := range counts {
		out = append(out, ViolationCount{Signature: sig, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Signature < out[j].Signature
	})
	if len(out) > maxTopViolations {
		out = out[:maxTopViolations]
	}
	return out
}
