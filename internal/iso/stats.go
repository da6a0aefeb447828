package iso

import "sync/atomic"

// SearchStats is a snapshot of the canonical-search counters: how many
// searches ran, how big their backtracking trees were, and how often each
// pruning rule fired. The counters are process-global and monotonically
// increasing — callers wanting per-workload numbers take a snapshot
// before and after and Sub the two. The frozen reference engine
// (SetReferenceEngine) does not count.
type SearchStats struct {
	// Searches is the number of completed canonical searches.
	Searches int64 `json:"searches"`
	// Nodes is the number of search-tree nodes visited (refinement calls).
	Nodes int64 `json:"nodes"`
	// Leaves is the number of discrete partitions reached.
	Leaves int64 `json:"leaves"`
	// OrbitPrunes counts branches skipped because an already-tried vertex
	// of the cell maps to the candidate under a discovered automorphism.
	OrbitPrunes int64 `json:"orbit_prunes"`
	// PrefixPrunes counts subtrees cut because the path's determined word
	// bytes already exceed the best leaf word.
	PrefixPrunes int64 `json:"prefix_prunes"`
	// ParallelSearches is always 0: the canonical search is sequential
	// (DESIGN.md §13). The field stays because the repository benchmark
	// reports it as iso.parallel_searches.
	ParallelSearches int64 `json:"parallel_searches"`
}

// Sub returns s minus t field by field — the delta between two snapshots.
func (s SearchStats) Sub(t SearchStats) SearchStats {
	return SearchStats{
		Searches:         s.Searches - t.Searches,
		Nodes:            s.Nodes - t.Nodes,
		Leaves:           s.Leaves - t.Leaves,
		OrbitPrunes:      s.OrbitPrunes - t.OrbitPrunes,
		PrefixPrunes:     s.PrefixPrunes - t.PrefixPrunes,
		ParallelSearches: s.ParallelSearches - t.ParallelSearches,
	}
}

// searchStats are the process-global accumulators. The search itself
// counts into plain ints on its canonState (the hot path stays
// non-atomic); each search flushes them here once, on completion.
var searchStats struct {
	searches, nodes, leaves   atomic.Int64
	orbitPrunes, prefixPrunes atomic.Int64
}

// Stats snapshots the process-global canonical-search counters.
func Stats() SearchStats {
	return SearchStats{
		Searches:     searchStats.searches.Load(),
		Nodes:        searchStats.nodes.Load(),
		Leaves:       searchStats.leaves.Load(),
		OrbitPrunes:  searchStats.orbitPrunes.Load(),
		PrefixPrunes: searchStats.prefixPrunes.Load(),
	}
}

// flushStats adds one finished search's local counters to the globals.
func (st *canonState) flushStats() {
	searchStats.searches.Add(1)
	searchStats.nodes.Add(int64(st.nodes))
	searchStats.leaves.Add(int64(st.leaves))
	searchStats.orbitPrunes.Add(int64(st.orbitPrunes))
	searchStats.prefixPrunes.Add(int64(st.prefixPrunes))
}
