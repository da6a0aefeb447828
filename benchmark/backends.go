package main

import (
	"fmt"
	goruntime "runtime"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/runtime"
)

// backendsWorkload is the cost of one election on each backend:
// runtime.DFSElection run by a single caller on the goroutine, scheduled,
// transformed and networked (two shards, pipe spawn mode) backends, over
// the runtime conformance corpus plus three larger instances.
type backendsWorkload struct {
	e        *env
	insts    []graphInput
	backends []runtime.Runtime
	frames   *frameCounter
}

// conformanceCorpus is the 21-instance corpus of the runtime conformance
// test, plus cycle 64, torus 8×8 and a random 3-regular graph on 200
// nodes drawn from the seed.
func conformanceCorpus(seed int64, tiny bool) ([]graphInput, error) {
	twinDouble, err := graph.FromTwins([][][2]int{
		{{1, 0}, {1, 1}},
		{{0, 0}, {0, 1}},
	})
	if err != nil {
		return nil, err
	}
	twinTriangle, err := graph.FromTwins([][][2]int{
		{{1, 0}, {1, 1}, {2, 0}},
		{{0, 0}, {0, 1}, {2, 1}},
		{{0, 2}, {1, 2}},
	})
	if err != nil {
		return nil, err
	}
	insts := []graphInput{
		{"cycle3", graph.Cycle(3), []int{0, 1}},
		{"cycle5", graph.Cycle(5), []int{0, 2}},
		{"cycle6", graph.Cycle(6), []int{0, 2, 3}},
		{"cycle8", graph.Cycle(8), []int{0, 3, 5}},
		{"cycle12", graph.Cycle(12), []int{0, 4, 8}},
		{"path4", graph.Path(4), []int{0, 1}},
		{"path6", graph.Path(6), []int{0, 3, 5}},
		{"hypercube2", graph.Hypercube(2), []int{0, 3}},
		{"hypercube3", graph.Hypercube(3), []int{0, 5, 6}},
		{"petersen", graph.Petersen(), []int{0, 1}},
		{"petersen-far", graph.Petersen(), []int{0, 7, 8}},
		{"complete4", graph.Complete(4), []int{0, 2}},
		{"star4", graph.Star(4), []int{1, 2}},
		{"star5-center", graph.Star(5), []int{0, 1}},
		{"grid23", graph.Grid(2, 3), []int{0, 5}},
		{"grid33", graph.Grid(3, 3), []int{0, 4, 8}},
		{"prism3", graph.Prism(3), []int{0, 4}},
		{"wheel5", graph.Wheel(5), []int{0, 2}},
		{"bipartite23", graph.CompleteBipartite(2, 3), []int{0, 2}},
		{"twin-double", twinDouble, []int{0, 1}},
		{"twin-triangle", twinTriangle, []int{0, 2}},
	}
	if tiny {
		return insts, nil
	}
	// The larger instances run four times per pass, each with its own
	// seed. Their elections are then 36% of a pass, so the p50, p90 and
	// p99 of the Run times each fall inside a cluster of like elections
	// rather than on the edge between two.
	large := []graphInput{
		{"cycle64", graph.Cycle(64), []int{0, 21, 42}},
		{"torus8x8", graph.Torus(8, 8), []int{0, 27, 50}},
		{"regular3-200", graph.RandomRegular(200, 3, seed), []int{0, 66, 133}},
	}
	for i := 0; i < 4; i++ {
		insts = append(insts, large...)
	}
	return insts, nil
}

// frameCounter is the networked backend's FrameLog: it counts the control
// frames (one line each) and their bytes.
type frameCounter struct {
	frames, bytes atomic.Int64
}

func (f *frameCounter) Write(p []byte) (int, error) {
	for _, c := range p {
		if c == '\n' {
			f.frames.Add(1)
		}
	}
	f.bytes.Add(int64(len(p)))
	return len(p), nil
}

func newBackends(e *env) (workload, error) {
	insts, err := conformanceCorpus(e.seed, e.tiny)
	if err != nil {
		return nil, err
	}
	return &backendsWorkload{e: e, insts: insts}, nil
}

// setup builds the four backends and runs one warm-up election on each.
func (w *backendsWorkload) setup(rc *recorder) error {
	w.backends = w.backends[:0]
	w.frames = &frameCounter{}
	for i, name := range runtime.Backends() {
		b, err := runtime.New(name)
		if err != nil {
			return err
		}
		if nw, ok := b.(*runtime.Networked); ok {
			nw.Workers, nw.Spawn = 2, runtime.SpawnPipe
			if rc != nil {
				nw.FrameLog = w.frames
			}
		}
		w.backends = append(w.backends, b)
		if rc != nil {
			rc.run.SetTrackName(trackBackend+i, name+".Run")
		}
	}
	_, err := w.election(w.insts[2], w.e.seed, nil, nil)
	return err
}

func (w *backendsWorkload) teardown() error { return nil }

// backendCost accumulates one backend's elections.
type backendCost struct {
	wall          time.Duration
	moves         int64
	allocs, bytes uint64
	steps         int64
}

// election runs one instance on every backend and checks the results: a
// unique leader with the maximum ID, and identical outcomes and per-agent
// moves on all four backends. It returns each Run call's wall time.
func (w *backendsWorkload) election(in graphInput, seed int64, rc *recorder, cost []backendCost) ([]time.Duration, error) {
	cfg := runtime.Config{Graph: in.g, Homes: in.homes, Seed: seed}
	var base *runtime.Result
	walls := make([]time.Duration, len(w.backends))
	for i, b := range w.backends {
		var m0, m1 goruntime.MemStats
		if rc != nil {
			goruntime.ReadMemStats(&m0)
		}
		sp := rc.span(trackBackend+i, fmt.Sprintf("%s %s seed=%d", b.Name(), in.name, seed))
		start := time.Now()
		res, err := b.Run(cfg, runtime.DFSElection())
		walls[i] = time.Since(start)
		sp.End()
		if rc != nil {
			goruntime.ReadMemStats(&m1)
		}
		if err != nil {
			return walls, fmt.Errorf("%s on %s seed %d: %v", b.Name(), in.name, seed, err)
		}
		if want := len(in.homes) - 1; res.Leader() != want {
			return walls, fmt.Errorf("%s on %s seed %d: leader %d, want the maximum ID (agent %d); outcomes %v",
				b.Name(), in.name, seed, res.Leader(), want, res.Outcomes)
		}
		if base == nil {
			base = res
		}
		for a := range base.Outcomes {
			if base.Outcomes[a] != res.Outcomes[a] || base.Moves[a] != res.Moves[a] {
				return walls, fmt.Errorf("%s on %s seed %d: agent %d %q after %d moves, %s says %q after %d",
					b.Name(), in.name, seed, a, res.Outcomes[a], res.Moves[a], base.Backend, base.Outcomes[a], base.Moves[a])
			}
		}
		if cost != nil {
			c := &cost[i]
			c.wall += walls[i]
			c.moves += res.TotalMoves()
			c.steps += int64(res.Steps)
			c.allocs += m1.Mallocs - m0.Mallocs
			c.bytes += m1.TotalAlloc - m0.TotalAlloc
		}
	}
	return walls, nil
}

// measure runs whole passes over the instances, each pass with fresh
// seeds, until d has passed.
func (w *backendsWorkload) measure(d time.Duration, rc *recorder) (*section, error) {
	cost := make([]backendCost, len(w.backends))
	w.frames.frames.Store(0)
	w.frames.bytes.Store(0)
	s := newSection()
	probe := startSection()
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		for i, in := range w.insts {
			seed := w.e.seed*1_000_000 + int64(pass)*1_000 + int64(i)
			walls, err := w.election(in, seed, rc, cost)
			msg := ""
			if err != nil {
				msg = err.Error()
			}
			for _, wall := range walls {
				s.check(msg)
				if msg == "" {
					s.latencyMS = append(s.latencyMS, ms(wall))
				}
			}
		}
	}
	s.elapsed = time.Since(start)
	s.usage = usageSince(probe)
	s.ops = s.attempted
	var steps, elections int64
	for i, b := range w.backends {
		c := cost[i]
		s.figs.set("ns_per_move."+b.Name(), ratio(float64(c.wall), float64(c.moves)))
		if rc == nil {
			continue
		}
		s.figs.set("runtime.allocs_per_move."+b.Name(), ratio(float64(c.allocs), float64(c.moves)))
		s.figs.set("runtime.bytes_per_move."+b.Name(), ratio(float64(c.bytes), float64(c.moves)))
		steps += c.steps
		if b.Name() == "networked" {
			s.figs.set("runtime.frames_per_step.networked", ratio(float64(w.frames.frames.Load()), float64(c.steps)))
			s.figs.set("runtime.frame_bytes_per_step.networked", ratio(float64(w.frames.bytes.Load()), float64(c.steps)))
		}
	}
	elections = int64(len(s.latencyMS))
	if rc != nil {
		s.figs.set("runtime.steps_per_election", ratio(float64(steps), float64(elections)))
	}
	return s, nil
}
