package exp

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/runtime"
)

// RunFig1Experiment (E12) exercises the paper's Figure 1 — the generic
// transformation of a mobile-agent protocol into a protocol for an
// anonymous processor network ("a message is an agent"). The one
// Chang–Roberts protocol (runtime.ChangRoberts) runs on all four backends:
// walking agents on the goroutine and scheduled backends, (program,
// memory) messages between processors on the transformed backend and over
// the networked backend's bus. On every ring all four elect the maximum
// identity with identical per-agent outcomes and moves.
func RunFig1Experiment(seed int64) (string, error) {
	backends := []runtime.Runtime{runtime.Goroutine{}, &runtime.Scheduled{}, runtime.Transformed{}, &runtime.Networked{}}
	header := []string{"ring", "elected", "total moves"}
	for _, rt := range backends {
		header = append(header, rt.Name()+" steps")
	}
	header = append(header, "outcomes, moves")
	var cells [][]string
	for _, n := range []int{3, 5, 8, 12, 16} {
		homes := make([]int, n)
		for i := range homes {
			homes[i] = i
		}
		cfg := runtime.Config{Graph: graph.Cycle(n), Labels: graph.OrientedCycleLabeling(n), Homes: homes, Seed: seed}
		results := make([]*runtime.Result, len(backends))
		for i, rt := range backends {
			res, err := rt.Run(cfg, runtime.ChangRoberts(1))
			if err != nil {
				return "", fmt.Errorf("C%d: %w", n, err)
			}
			results[i] = res
		}
		if err := checkFig1(n, results); err != nil {
			return "", err
		}
		row := []string{fmt.Sprintf("C%d (r=%d)", n, n), fmt.Sprintf("agent %d (max id)", n-1), fmt.Sprint(results[0].TotalMoves())}
		for _, res := range results {
			row = append(row, fmt.Sprint(res.Steps))
		}
		cells = append(cells, append(row, "identical"))
	}
	out := Table(header, cells)
	out += "\nThe same agent program (Chang-Roberts) elects the same leader with the same moves\n" +
		"whether agents walk (goroutine, scheduled) or travel as messages (transformed,\n" +
		"networked) — Figure 1's transformation, executed. Steps count activations,\n" +
		"parked re-steps included, so they depend on each backend's schedule.\n"
	return out, nil
}

// checkFig1 requires every backend to elect agent n−1, the maximum
// identity, with the first backend's per-agent outcomes and moves.
func checkFig1(n int, results []*runtime.Result) error {
	base := results[0]
	for _, res := range results {
		if res.Leader() != n-1 {
			return fmt.Errorf("C%d: %s elected agent %d, want the maximum identity %d (outcomes %v)",
				n, res.Backend, res.Leader(), n-1, res.Outcomes)
		}
		if !slices.Equal(res.Outcomes, base.Outcomes) || !slices.Equal(res.Moves, base.Moves) {
			return fmt.Errorf("C%d: %s diverges from %s: outcomes %v moves %v vs %v %v",
				n, res.Backend, base.Backend, res.Outcomes, res.Moves, base.Outcomes, base.Moves)
		}
	}
	return nil
}
