package sim

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/lazyrand"
)

// presentationEngine is an engine holding only the presentation state,
// with room for n presentations so the cache never grows while measured.
func presentationEngine(seedLo int64, n int) *engine {
	return &engine{pres: make(map[[2]int][]int, n), presRand: lazyrand.New(0), seedLo: seedLo}
}

// TestPresentationMatchesMathRand pins every (agent, node) presentation to
// the math/rand stream of its presentationSeed, so recorded schedules and
// golden files keep their meaning.
func TestPresentationMatchesMathRand(t *testing.T) {
	for _, seedLo := range []int64{0, 1, -7, 1 << 40} {
		e := presentationEngine(seedLo, 0)
		for agent := 0; agent < 8; agent++ {
			for node := 0; node < 64; node++ {
				deg := 1 + (agent+node)%9
				want := rand.New(rand.NewSource(presentationSeed(seedLo, agent, node))).Perm(deg)
				if got := e.presentation(agent, node, deg); !reflect.DeepEqual(got, want) {
					t.Fatalf("seedLo=%d (%d,%d): presentation %v, math/rand %v", seedLo, agent, node, got, want)
				}
			}
		}
	}
}

// TestPresentationAllocatesOnlyPermutation guards the O(1) seeding: a new
// (agent, node) presentation allocates its permutation slice and nothing
// else, where a generator per pair cost a 4.8 KB register.
func TestPresentationAllocatesOnlyPermutation(t *testing.T) {
	const runs = 200
	e := presentationEngine(5, runs+1)
	node := 0
	allocs := testing.AllocsPerRun(runs, func() {
		e.presentation(0, node, 3)
		node++
	})
	if allocs != 1 {
		t.Errorf("a new presentation allocated %.1f times, want 1 (its permutation)", allocs)
	}
}

// TestAgentRandMatchesMathRand checks that an agent's private PRNG, built
// on first use, is the math/rand stream of the seed Run draws for it.
func TestAgentRandMatchesMathRand(t *testing.T) {
	homes := []int{0, 2, 4}
	const seed = 99
	ref := rand.New(rand.NewSource(seed))
	ref.Int63()          // seedLo
	ref.Perm(len(homes)) // palette
	want := make([][]int64, len(homes))
	for i := range want {
		agent := rand.New(rand.NewSource(ref.Int63()))
		for k := 0; k < 10; k++ {
			want[i] = append(want[i], agent.Int63())
		}
	}
	got := make([][]int64, len(homes))
	_, err := Run(Config{Graph: graph.Cycle(6), Homes: homes, Seed: seed, WakeAll: true}, func(a *Agent) (Outcome, error) {
		for k := 0; k < 10; k++ {
			got[a.index] = append(got[a.index], a.Rand().Int63())
		}
		return Outcome{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("agent PRNG draws %v, math/rand %v", got, want)
	}
}

// TestFinishedRunsReleaseWatchdog runs thousands of short runs under a
// one-hour Timeout: a watchdog timer that outlives its run keeps a few
// hundred bytes reachable until it fires, so the live heap would grow with
// the number of runs.
func TestFinishedRunsReleaseWatchdog(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const runs = 3000
	cfg := Config{Graph: graph.Path(2), Homes: []int{0}, Seed: 1, WakeAll: true, Timeout: time.Hour}
	leader := func(*Agent) (Outcome, error) { return Outcome{Role: RoleLeader}, nil }
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	if _, err := Run(cfg, leader); err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	for i := 0; i < runs; i++ {
		cfg.Seed = int64(i)
		if _, err := Run(cfg, leader); err != nil {
			t.Fatal(err)
		}
	}
	const bound = 256 << 10
	if after := liveHeap(); after > before+bound {
		t.Errorf("live heap grew by %d B over %d finished runs, want at most %d B", after-before, runs, bound)
	}
}
