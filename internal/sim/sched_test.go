package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
)

// tourProtocol exercises every scheduler sequence point: each agent writes a
// start sign at home, tours the whole ring writing visit signs, then waits at
// home until every color's visit sign has arrived.
func tourProtocol(a *Agent) (Outcome, error) {
	if err := a.Access(func(b *Board) { b.Write("start") }); err != nil {
		return Outcome{}, err
	}
	entry := Symbol{}
	n := 0
	for {
		// Leave through a port that is not the one we entered by (on a cycle
		// this walks consistently around the ring).
		var out Symbol
		for _, s := range a.Symbols() {
			if !s.IsZero() && s != entry {
				out = s
			}
		}
		var err error
		entry, err = a.Move(out)
		if err != nil {
			return Outcome{}, err
		}
		n++
		if err := a.Access(func(b *Board) { b.Write("visit") }); err != nil {
			return Outcome{}, err
		}
		if n == 6 { // full tour of the 6-cycle, back home
			break
		}
	}
	_, err := a.Wait(func(ss Signs) bool { return ss.CountColors("visit") >= 2 })
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Role: RoleUnsolvable}, nil
}

// eventRecorder collects the deterministic projection of a trace (everything
// but the wall-clock timestamps).
type eventRecorder struct {
	mu     sync.Mutex
	events []Event
}

func (r *eventRecorder) trace(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e.At = 0
	r.events = append(r.events, e)
}

func runScheduled(t *testing.T, strat Strategy, rec *Schedule) []Event {
	t.Helper()
	er := &eventRecorder{}
	res, err := Run(Config{
		Graph:     graph.Cycle(6),
		Homes:     []int{0, 3},
		Seed:      7,
		WakeAll:   true,
		Timeout:   30 * time.Second,
		Scheduler: strat,
		Record:    rec,
		Tracer:    er.trace,
	}, tourProtocol)
	if err != nil {
		t.Fatalf("scheduled run failed: %v", err)
	}
	if !res.AllUnsolvable() {
		t.Fatalf("unexpected outcomes: %+v", res.Outcomes)
	}
	return er.events
}

// TestScheduleRecordReplay is the record → replay → identical-event-stream
// round trip: a run under a seeded random strategy is replayed from its
// decision log and must reproduce the exact same global event sequence.
func TestScheduleRecordReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	random := StrategyFunc(func(ready []int, step int) int {
		return ready[rng.Intn(len(ready))]
	})
	var rec Schedule
	recorded := runScheduled(t, random, &rec)
	if rec.Len() == 0 {
		t.Fatal("no grants recorded")
	}

	rp := Replay(&rec)
	var rec2 Schedule
	replayed := runScheduled(t, rp, &rec2)
	if rp.Divergences() != 0 {
		t.Fatalf("faithful replay diverged %d times", rp.Divergences())
	}
	if !reflect.DeepEqual(recorded, replayed) {
		t.Fatalf("replayed event stream differs:\nrecorded %d events\nreplayed %d events",
			len(recorded), len(replayed))
	}
	if !reflect.DeepEqual(rec.Grants, rec2.Grants) {
		t.Fatal("replaying did not reproduce the decision log")
	}
}

// TestScheduleEncodeRoundTrip checks the compact wire form.
func TestScheduleEncodeRoundTrip(t *testing.T) {
	s := &Schedule{Grants: []int32{0, 1, 127, 128, 300, 0, 2}}
	dec, err := DecodeSchedule(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Grants, dec.Grants) {
		t.Fatalf("round trip mismatch: %v != %v", dec.Grants, s.Grants)
	}
	if _, err := DecodeSchedule([]byte{0x80}); err == nil {
		t.Fatal("truncated uvarint accepted")
	}
	if got, err := DecodeSchedule(nil); err != nil || got.Len() != 0 {
		t.Fatalf("empty log should decode to empty schedule, got %v, %v", got, err)
	}
}

// TestReplayMutatedLogStillTerminates feeds a garbage decision log through
// Replay: the run must complete (falling back past divergences), never hang.
func TestReplayMutatedLogStillTerminates(t *testing.T) {
	junk := &Schedule{Grants: []int32{5, 5, 1, 9, 0, 0, 0, 1, 7}}
	rp := Replay(junk)
	runScheduled(t, rp, nil)
	if rp.Divergences() == 0 {
		t.Fatal("expected divergences replaying a foreign log")
	}
}

// TestScheduleDeadlockDetected: an agent waiting for a sign nobody will write
// must be reported as a schedule deadlock, not hang until the timeout.
func TestScheduleDeadlockDetected(t *testing.T) {
	start := time.Now()
	_, err := Run(Config{
		Graph:     graph.Cycle(4),
		Homes:     []int{0, 2},
		Seed:      1,
		WakeAll:   true,
		Timeout:   30 * time.Second,
		Scheduler: StrategyFunc(func(ready []int, step int) int { return ready[0] }),
	}, func(a *Agent) (Outcome, error) {
		_, err := a.Wait(func(ss Signs) bool { return ss.Has("never-written") })
		return Outcome{}, err
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("deadlock detection waited for the timeout")
	}
}

// TestAbortUnwindsInIndexOrder: after a schedule deadlock the agents unwind
// one at a time in index order, so the outcome events they emit while
// unwinding are part of the deterministic event stream that replay compares.
func TestAbortUnwindsInIndexOrder(t *testing.T) {
	homes := []int{0, 1, 2, 3, 4}
	for run := 0; run < 20; run++ {
		er := &eventRecorder{}
		_, err := Run(Config{
			Graph:     graph.Cycle(6),
			Homes:     homes,
			Seed:      int64(run),
			WakeAll:   true,
			Timeout:   30 * time.Second,
			Scheduler: StrategyFunc(func(ready []int, step int) int { return ready[len(ready)-1] }),
			Tracer:    er.trace,
		}, func(a *Agent) (Outcome, error) {
			_, err := a.Wait(func(ss Signs) bool { return ss.Has("never-written") })
			return Outcome{}, err
		})
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("want ErrDeadlock, got %v", err)
		}
		var order []int
		for _, e := range er.events {
			if e.Kind == EvOutcome {
				order = append(order, e.Agent)
			}
		}
		if want := []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(order, want) {
			t.Fatalf("run %d: agents unwound in order %v, want %v", run, order, want)
		}
	}
}

// TestScheduledDeterminism: two runs under the same deterministic strategy
// produce identical event streams without any log in between.
func TestScheduledDeterminism(t *testing.T) {
	rr := func() Strategy {
		last := -1
		return StrategyFunc(func(ready []int, step int) int {
			for _, a := range ready {
				if a > last {
					last = a
					return a
				}
			}
			last = ready[0]
			return ready[0]
		})
	}
	a := runScheduled(t, rr(), nil)
	b := runScheduled(t, rr(), nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same strategy, same seed, different event streams")
	}
}
