package iso

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
)

// TestConcurrentStateReuse: eight goroutines draw search states from the
// shared pool for searches over inputs of 1 to 64 nodes, rigid and
// symmetric, plus a multigraph and a digraph, interleaved with searches
// whose deadline fires mid-way. Every completed search must return exactly the
// Word, Perm and AutoGens computed before the goroutines start: a state
// that kept stale scratch, or a Result that aliased pooled memory, would
// differ. In make determinism (-race -count=50).
func TestConcurrentStateReuse(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	b.AddEdge(2, 2)
	inputs := []*Sparse{
		sparse(graph.Path(1)),
		SparseFromGraph(graph.Cycle(6), blackAt(6, 0, 2)),
		sparse(graph.Petersen()),
		SparseFromGraph(graph.Hypercube(4), blackAt(16, 0)),
		sparse(graph.RandomRegular(24, 3, 5)),
		sparse(graph.BlowupCycle(6, 3)),
		SparseFromGraph(graph.Cycle(64), blackAt(64, 0, 16, 32, 48)),
		sparse(b.Graph()),
		SparseFromArcs(12, surroundingArcsOfCycle(12), blackAt(12, 0, 4)),
	}
	type job struct {
		sp   *Sparse
		want *Result
	}
	var jobs []job
	for _, sp := range inputs {
		jobs = append(jobs, job{sp: sp, want: CanonicalSparse(sp)})
	}

	const workers, rounds = 8, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds*len(jobs); i++ {
				j := jobs[(w+i)%len(jobs)]
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if i%3 == 0 {
					// Fires at a different point of each search.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(i%7)*20*time.Microsecond)
				}
				got, err := CanonicalSparseCtx(ctx, j.sp)
				cancel()
				if errors.Is(err, context.DeadlineExceeded) {
					continue
				}
				if err != nil {
					t.Errorf("worker %d: unexpected error %v", w, err)
					return
				}
				if !sameResult(got, j.want) {
					t.Errorf("worker %d: %d-node search differs from its serial result",
						w, len(j.want.Perm))
					return
				}
			}
		}()
	}
	wg.Wait()
}

func sameResult(a, b *Result) bool {
	if !bytes.Equal(a.Word, b.Word) || !a.Perm.Equal(b.Perm) || len(a.AutoGens) != len(b.AutoGens) {
		return false
	}
	for i := range a.AutoGens {
		if !a.AutoGens[i].Equal(b.AutoGens[i]) {
			return false
		}
	}
	return true
}
