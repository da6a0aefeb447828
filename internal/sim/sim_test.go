package sim

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

func TestColorsDistinctAndIncomparable(t *testing.T) {
	cfg := Config{Graph: graph.Cycle(5), Homes: []int{0, 2, 4}, Seed: 1, WakeAll: true}
	res, err := Run(cfg, func(a *Agent) (Outcome, error) {
		return Outcome{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Colors {
		if res.Colors[i].IsZero() {
			t.Fatal("agent got zero color")
		}
		for j := i + 1; j < len(res.Colors); j++ {
			if res.Colors[i].Equal(res.Colors[j]) {
				t.Fatal("two agents share a color")
			}
		}
	}
}

func TestMoveFollowsTwins(t *testing.T) {
	// Walk around a cycle: n moves must return home. Recognize "home" via
	// the home sign of our own color.
	n := 6
	cfg := Config{Graph: graph.Cycle(n), Homes: []int{3}, Seed: 2, WakeAll: true}
	_, err := Run(cfg, func(a *Agent) (Outcome, error) {
		// Pick a consistent direction: always leave through the port that
		// is not the one we came in through.
		var came Symbol
		for step := 0; step < n; step++ {
			var out Symbol
			for _, s := range a.Symbols() {
				if s != came {
					out = s
					break
				}
			}
			entry, err := a.Move(out)
			if err != nil {
				return Outcome{}, err
			}
			came = entry
		}
		// After n steps in a fixed direction we are home again.
		var home bool
		err := a.Access(func(b *Board) {
			home = b.Signs().HasBy(a.Color(), TagHome)
		})
		if err != nil {
			return Outcome{}, err
		}
		if !home {
			return Outcome{}, errors.New("did not return home after n steps")
		}
		return Outcome{Role: RoleLeader, Leader: a.Color()}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMoveCountsAndInvalidSymbol(t *testing.T) {
	cfg := Config{Graph: graph.Path(3), Homes: []int{0}, Seed: 3, WakeAll: true}
	res, err := Run(cfg, func(a *Agent) (Outcome, error) {
		s := a.Symbols()[0]
		if _, err := a.Move(s); err != nil {
			return Outcome{}, err
		}
		// The old symbol belongs to the previous node now.
		if _, err := a.Move(s); err == nil {
			return Outcome{}, errors.New("stale symbol accepted")
		}
		return Outcome{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves[0] != 1 {
		t.Fatalf("moves = %d, want 1", res.Moves[0])
	}
}

func TestSymbolsStablePerAgentPerNode(t *testing.T) {
	cfg := Config{Graph: graph.Star(4), Homes: []int{0}, Seed: 4, WakeAll: true}
	_, err := Run(cfg, func(a *Agent) (Outcome, error) {
		first := a.Symbols()
		// Leave and come back; presentation must be identical.
		entry, err := a.Move(first[0])
		if err != nil {
			return Outcome{}, err
		}
		if _, err := a.Move(entry); err != nil {
			return Outcome{}, err
		}
		second := a.Symbols()
		if len(first) != len(second) {
			return Outcome{}, errors.New("degree changed")
		}
		for i := range first {
			if first[i] != second[i] {
				return Outcome{}, errors.New("presentation order changed across visits")
			}
		}
		return Outcome{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWhiteboardMutualExclusion(t *testing.T) {
	// All agents race to write "first" on the shared central whiteboard;
	// exactly one must win. This is the star-network election of §1.3.
	g := graph.Star(6)
	homes := []int{1, 2, 3, 4, 5, 6}
	cfg := Config{Graph: g, Homes: homes, Seed: 5, WakeAll: true, MaxDelay: time.Millisecond}
	var winners int64
	res, err := Run(cfg, func(a *Agent) (Outcome, error) {
		// Move to the center (the only neighbor).
		if _, err := a.Move(a.Symbols()[0]); err != nil {
			return Outcome{}, err
		}
		won := false
		err := a.Access(func(b *Board) {
			if !b.Signs().Has("first") {
				b.Write("first")
				won = true
			}
		})
		if err != nil {
			return Outcome{}, err
		}
		if won {
			atomic.AddInt64(&winners, 1)
			return Outcome{Role: RoleLeader, Leader: a.Color()}, nil
		}
		var leader Color
		err = a.Access(func(b *Board) {
			cs := b.Signs().Colors("first")
			if len(cs) == 1 {
				leader = cs[0]
			}
		})
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{Role: RoleDefeated, Leader: leader}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if winners != 1 {
		t.Fatalf("winners = %d, want exactly 1", winners)
	}
	if !res.AgreedLeader() {
		t.Fatal("agents did not agree on the leader")
	}
}

func TestWaitWakesOnWrite(t *testing.T) {
	// Agent 0 waits for a "go" sign; agent 1 walks over and writes it.
	g := graph.Path(2)
	cfg := Config{Graph: g, Homes: []int{0, 1}, Seed: 6, WakeAll: true}
	res, err := Run(cfg, func(a *Agent) (Outcome, error) {
		// Both agents walk to the other node, write "go" there, walk back,
		// and wait for the other's "go" at home — exercising Wait's wake-up
		// on a concurrent write.
		if _, err := a.Move(a.Symbols()[0]); err != nil {
			return Outcome{}, err
		}
		if err := a.Access(func(b *Board) { b.Write("go") }); err != nil {
			return Outcome{}, err
		}
		if _, err := a.Move(a.Symbols()[0]); err != nil {
			return Outcome{}, err
		}
		if _, err := a.Wait(func(ss Signs) bool { return ss.Has("go") }); err != nil {
			return Outcome{}, err
		}
		return Outcome{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range res.Errors {
		if e != nil {
			t.Fatalf("agent %d: %v", i, e)
		}
	}
}

func TestSleepingAgentWokenByVisitor(t *testing.T) {
	// Only agent 0 starts awake (WakeAll=false with seed choosing...); to
	// make it deterministic we wake a sleeper explicitly: agent 0 walks the
	// cycle writing wake signs at home-bases.
	g := graph.Cycle(4)
	cfg := Config{Graph: g, Homes: []int{0, 2}, Seed: 8, WakeAll: false}
	res, err := Run(cfg, func(a *Agent) (Outcome, error) {
		// Every awake agent tours the cycle writing TagWake on every board,
		// then declares done. Sleeping agents do the same once woken.
		var came Symbol
		for step := 0; step < 4; step++ {
			if err := a.Access(func(b *Board) { b.Write(TagWake) }); err != nil {
				return Outcome{}, err
			}
			var out Symbol
			for _, s := range a.Symbols() {
				if s != came {
					out = s
					break
				}
			}
			entry, err := a.Move(out)
			if err != nil {
				return Outcome{}, err
			}
			came = entry
		}
		return Outcome{Role: RoleDefeated, Leader: a.Color()}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outcomes {
		if o.Role != RoleDefeated {
			t.Fatalf("agent %d never ran (role %v)", i, o.Role)
		}
	}
}

// stall never finishes and never parks: it keeps re-reading its board,
// a livelock the deadlock detector cannot see, so only the watchdog or
// the run's context can end it.
func stall(a *Agent) (Outcome, error) {
	for {
		if err := a.Access(func(*Board) {}); err != nil {
			return Outcome{}, err
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTimeoutAbortsDeadlock: the watchdog aborts a run that never ends
// and reports it as ErrAborted under a single "sim:" prefix.
func TestTimeoutAbortsDeadlock(t *testing.T) {
	cfg := Config{
		Graph:   graph.Path(2),
		Homes:   []int{0},
		Seed:    9,
		WakeAll: true,
		Timeout: 100 * time.Millisecond,
	}
	_, err := Run(cfg, stall)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("want ErrAborted, got %v", err)
	}
	if want := "sim: run aborted (deadline reached) after 100ms"; err.Error() != want {
		t.Fatalf("watchdog error %q, want %q", err, want)
	}
}

// TestFreeRunningDeadlock: once every live agent is parked in Wait no one
// can write a board again, so the run ends with ErrDeadlock at once
// instead of sitting out its watchdog. Agent 0 halts; the others park on
// signs nobody writes.
func TestFreeRunningDeadlock(t *testing.T) {
	cfg := Config{Graph: graph.Cycle(4), Homes: []int{0, 1, 2}, Seed: 3, WakeAll: true, Timeout: time.Minute}
	start := time.Now()
	_, err := Run(cfg, func(a *Agent) (Outcome, error) {
		if a.index == 0 {
			return Outcome{}, nil
		}
		_, err := a.Wait(func(ss Signs) bool { return ss.Has("never") })
		return Outcome{}, err
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("deadlock reported after %v; detection waited for something", elapsed)
	}
}

func TestContextCancelAbortsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cfg := Config{
		Graph:   graph.Path(2),
		Homes:   []int{0},
		Seed:    9,
		WakeAll: true,
		Timeout: 30 * time.Second,
		Context: ctx,
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Run(cfg, stall)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if errors.Is(err, ErrAborted) {
		t.Fatal("cancellation must not look like a retriable watchdog abort")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancel took %v, run did not unwind promptly", elapsed)
	}
}

func TestContextAlreadyCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{
		Graph:   graph.Path(2),
		Homes:   []int{0},
		Seed:    11,
		WakeAll: true,
		Context: ctx,
	}
	_, err := Run(cfg, stall)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

func TestQuantitativeIDGating(t *testing.T) {
	cfg := Config{Graph: graph.Path(2), Homes: []int{0}, Seed: 10, WakeAll: true}
	_, err := Run(cfg, func(a *Agent) (Outcome, error) {
		defer func() {
			if recover() == nil {
				panic("ID() must panic in the qualitative model")
			}
		}()
		_ = a.ID()
		return Outcome{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.QuantitativeIDs = true
	_, err = Run(cfg, func(a *Agent) (Outcome, error) {
		if a.ID() <= 0 {
			return Outcome{}, errors.New("bad id")
		}
		return Outcome{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Graph: graph.Path(3), Homes: nil}, nil); err == nil {
		t.Error("no agents accepted")
	}
	if _, err := Run(Config{Graph: graph.Path(3), Homes: []int{0, 0}}, nil); err == nil {
		t.Error("duplicate home accepted")
	}
	if _, err := Run(Config{Graph: graph.Path(3), Homes: []int{7}}, nil); err == nil {
		t.Error("out-of-range home accepted")
	}
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	if _, err := Run(Config{Graph: b.Graph(), Homes: []int{0}}, nil); err == nil {
		t.Error("disconnected graph accepted")
	}
}

func TestSignsHelpers(t *testing.T) {
	c1, c2 := Color{id: 1}, Color{id: 2}
	ss := Signs{{c1, "a"}, {c2, "a"}, {c1, "b:x"}, {c1, "b:y"}}
	if !ss.Has("a") || ss.Has("c") {
		t.Error("Has broken")
	}
	if !ss.HasBy(c1, "a") || ss.HasBy(c2, "b:x") {
		t.Error("HasBy broken")
	}
	if ss.CountColors("a") != 2 || ss.CountColors("b:x") != 1 {
		t.Error("CountColors broken")
	}
	if got := len(ss.WithPrefix("b:")); got != 2 {
		t.Errorf("WithPrefix returned %d signs", got)
	}
}

func TestHomeSignsPreMarked(t *testing.T) {
	cfg := Config{Graph: graph.Cycle(3), Homes: []int{0, 1}, Seed: 11, WakeAll: true}
	_, err := Run(cfg, func(a *Agent) (Outcome, error) {
		var homes int
		err := a.Access(func(b *Board) {
			homes = len(b.Signs().Colors(TagHome))
		})
		if err != nil {
			return Outcome{}, err
		}
		if homes != 1 {
			return Outcome{}, errors.New("home board should carry exactly one home sign")
		}
		return Outcome{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWriteIdempotentEraseWorks(t *testing.T) {
	cfg := Config{Graph: graph.Path(2), Homes: []int{0}, Seed: 12, WakeAll: true}
	_, err := Run(cfg, func(a *Agent) (Outcome, error) {
		err := a.Access(func(b *Board) {
			b.Write("x")
			b.Write("x")
			if n := len(b.Signs().WithPrefix("x")); n != 1 {
				panic("duplicate sign written")
			}
			b.Erase("x")
			if b.Signs().Has("x") {
				panic("erase failed")
			}
		})
		return Outcome{}, err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTracerReceivesEvents(t *testing.T) {
	var mu sync.Mutex
	var events []Event
	cfg := Config{
		Graph: graph.Cycle(4), Homes: []int{0, 2}, Seed: 13, WakeAll: true,
		Tracer: func(e Event) {
			mu.Lock()
			events = append(events, e)
			mu.Unlock()
		},
	}
	res, err := Run(cfg, func(a *Agent) (Outcome, error) {
		if _, err := a.Move(a.Symbols()[0]); err != nil {
			return Outcome{}, err
		}
		if err := a.Access(func(b *Board) { b.Write("x"); b.Erase("x") }); err != nil {
			return Outcome{}, err
		}
		return Outcome{Role: RoleDefeated}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	counts := map[EventKind]int{}
	for _, e := range events {
		counts[e.Kind]++
		if e.Agent < 0 || e.Agent >= 2 {
			t.Fatalf("bad agent index %d", e.Agent)
		}
	}
	if int64(counts[EvMove]) != res.TotalMoves() {
		t.Errorf("move events %d, counter %d", counts[EvMove], res.TotalMoves())
	}
	if counts[EvWake] != 2 || counts[EvOutcome] != 2 {
		t.Errorf("wake/outcome events %d/%d, want 2/2", counts[EvWake], counts[EvOutcome])
	}
	if counts[EvWrite] != 2 || counts[EvErase] != 2 {
		t.Errorf("write/erase events %d/%d, want 2/2", counts[EvWrite], counts[EvErase])
	}
}
