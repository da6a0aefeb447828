package runtime

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/sim"
)

func TestConfigValidation(t *testing.T) {
	good := graph.Cycle(4)
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"empty graph", Config{}, "empty graph"},
		{"disconnected", Config{Graph: mustDisconnected(t), Homes: []int{0}}, "connected"},
		{"no agents", Config{Graph: good}, "at least one agent"},
		{"home out of range", Config{Graph: good, Homes: []int{9}}, "out of range"},
		{"duplicate home", Config{Graph: good, Homes: []int{1, 1}}, "AllowSharedHomes"},
		{"bad labeling", Config{Graph: good, Homes: []int{0}, Labels: graph.EdgeLabeling{{0}}}, "label"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, rt := range []Runtime{Goroutine{}, &Scheduled{}, Transformed{}, &Networked{}} {
				cfg := tc.cfg
				_, err := rt.Run(cfg, DFSElection())
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("%s: got %v, want mention of %q", rt.Name(), err, tc.want)
				}
			}
		})
	}
}

func mustDisconnected(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.FromTwins([][][2]int{
		{{1, 0}}, {{0, 0}},
		{{3, 0}}, {{2, 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSharedHomes(t *testing.T) {
	cfg := Config{
		Graph:            graph.Cycle(5),
		Homes:            []int{0, 0, 3, 3},
		Seed:             2,
		AllowSharedHomes: true,
	}
	for _, rt := range []Runtime{Goroutine{}, Transformed{}, &Networked{Workers: 2}} {
		res, err := rt.Run(cfg, DFSElection())
		if err != nil {
			t.Fatalf("%s: %v", rt.Name(), err)
		}
		if got := res.Leader(); got != 3 {
			t.Fatalf("%s: leader %d, want the maximum identity 3 (outcomes %v)",
				rt.Name(), got, res.Outcomes)
		}
	}
}

func TestNewAndBackends(t *testing.T) {
	for _, name := range Backends() {
		rt, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if rt.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, rt.Name())
		}
	}
	if _, err := New("carrier-pigeon"); err == nil {
		t.Fatal("New accepted an unknown backend")
	}
}

func TestRegistry(t *testing.T) {
	if _, err := FromSpec("dfs-election"); err != nil {
		t.Fatal(err)
	}
	if _, err := FromSpec("dfs-election:extra"); err == nil {
		t.Fatal("dfs-election accepted args")
	}
	p, err := FromSpec("walker:1,3")
	if err != nil {
		t.Fatal(err)
	}
	if p.Spec() != "walker:1,3" {
		t.Fatalf("spec round trip: %q", p.Spec())
	}
	if p, err := FromSpec("chang-roberts:1"); err != nil || p.Spec() != "chang-roberts:1" {
		t.Fatalf("chang-roberts round trip: %v %v", p, err)
	}
	for _, bad := range []string{"", "nope", "walker", "walker:x,y", "walker:1", "chang-roberts", "chang-roberts:cw"} {
		if _, err := FromSpec(bad); err == nil {
			t.Fatalf("FromSpec(%q) succeeded", bad)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register("dfs-election", nil)
}

func TestWalkerAcrossBackends(t *testing.T) {
	cfg := Config{Graph: graph.Cycle(4), Homes: []int{0, 2}, Seed: 1}
	backends := []Runtime{Goroutine{}, &Scheduled{}, Transformed{}, &Networked{}}
	t.Run("steps", func(t *testing.T) {
		for _, rt := range backends {
			res, err := rt.Run(cfg, Walker(1, 5))
			if err != nil {
				t.Fatalf("%s: %v", rt.Name(), err)
			}
			for i, o := range res.Outcomes {
				if o != "done" {
					t.Fatalf("%s: agent %d halted %q", rt.Name(), i, o)
				}
				if res.Moves[i] != 5 {
					t.Fatalf("%s: agent %d made %d moves", rt.Name(), i, res.Moves[i])
				}
			}
			// 2 agents × (5 moves + 1 halting step).
			if res.Steps != 12 || res.Backend != rt.Name() {
				t.Fatalf("%s: result metadata %+v, want 12 steps", rt.Name(), res)
			}
		}
	})
	// The ring's ports are labeled 0 and 1: a move through 99 must fail.
	t.Run("missing label", func(t *testing.T) {
		for _, rt := range backends {
			if _, err := rt.Run(cfg, Walker(99, 1)); err == nil {
				t.Fatalf("%s: move through a missing label accepted", rt.Name())
			}
		}
	})
}

// TestDeadlockDetection runs Chang–Roberts with a single agent on C4: it
// stamps home, walks to a node no agent will ever stamp, and parks forever.
// Every backend must see that nothing can run and fail at once: the
// serialized ones find no runnable agent, the goroutine backend sees its
// only live agent parked (sim.ErrDeadlock) instead of waiting out its
// 30 s wall-clock timeout.
func TestDeadlockDetection(t *testing.T) {
	cfg := Config{Graph: graph.Cycle(4), Labels: graph.OrientedCycleLabeling(4), Homes: []int{0}, Seed: 1}
	for _, rt := range []Runtime{Goroutine{}, &Scheduled{}, Transformed{}, &Networked{}} {
		t.Run(rt.Name(), func(t *testing.T) {
			start := time.Now()
			if _, err := rt.Run(cfg, ChangRoberts(1)); err == nil {
				t.Fatal("an agent parked forever was not flagged")
			}
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Fatalf("deadlock flagged after %v, want well under 1s", elapsed)
			}
		})
	}
}

// stampWaiter parks an agent until a board change wakes it on oriented
// C3: agent 1 walks one hop from node 0 to node 1 and parks there until a
// "stamp" mark appears; agent 2 walks two hops from node 2 to node 1,
// stamps it and halts. Agent 1 halts "woke" if it parked first and "done"
// if the stamp was already there. It is not registered, so it runs only on
// the in-process backends.
type stampWaiter struct{}

func (stampWaiter) Spec() string { return "stamp-waiter" }

func (stampWaiter) Init(int) string { return "" }

func (stampWaiter) Step(memory string, v View) (string, Effect) {
	switch {
	case v.ID == 2 && memory == "":
		return "one hop", Effect{Move: 1}
	case v.ID == 2 && memory == "one hop":
		return "two hops", Effect{Move: 1}
	case v.ID == 2:
		return memory, Effect{Write: []string{"stamp"}, Halt: "done", Move: -1}
	case memory == "":
		return "walked", Effect{Move: 1}
	case !slices.Contains(v.Board, "stamp"):
		return "parked", Effect{Move: -1}
	case memory == "parked":
		return memory, Effect{Halt: "woke", Move: -1}
	}
	return memory, Effect{Halt: "done", Move: -1}
}

func TestParkedAgentWakesOnBoardChange(t *testing.T) {
	cfg := Config{Graph: graph.Cycle(3), Labels: graph.OrientedCycleLabeling(3), Homes: []int{0, 2}}
	// Always granting the lowest ready agent runs agent 1 onto node 1
	// before agent 2 gets there, so agent 1 must park and then wake.
	first := &Scheduled{Strategy: sim.StrategyFunc(func(ready []int, _ int) int { return ready[0] })}
	res, err := first.Run(cfg, stampWaiter{})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"woke", "done"}; !reflect.DeepEqual(res.Outcomes, want) {
		t.Fatalf("forced park: outcomes %v, want %v", res.Outcomes, want)
	}
	for _, rt := range []Runtime{Goroutine{}, &Scheduled{}, Transformed{}} {
		woke := 0
		for seed := int64(1); seed <= 10; seed++ {
			cfg.Seed = seed
			res, err := rt.Run(cfg, stampWaiter{})
			if err != nil {
				t.Fatalf("%s seed %d: %v", rt.Name(), seed, err)
			}
			o := res.Outcomes
			if o[1] != "done" || (o[0] != "done" && o[0] != "woke") {
				t.Fatalf("%s seed %d: outcomes %v", rt.Name(), seed, o)
			}
			if o[0] == "woke" {
				woke++
			}
		}
		// The seeded backends must take the park-and-wake path on some
		// seed; the goroutine backend's interleaving is uncontrolled.
		if woke == 0 && rt.Name() != "goroutine" {
			t.Fatalf("%s: agent 1 never parked in 10 seeds", rt.Name())
		}
	}
}

// TestChangRobertsAcrossBackends runs Chang–Roberts on fully occupied
// oriented rings on every backend. Whatever the interleaving, the maximum
// identity (agent n−1) must be the only leader, having walked the whole
// ring, and every other agent must halt one hop from home, so the move
// vector is exactly [1, …, 1, n]. The goroutine backend's interleaving is
// uncontrolled, so this is a claim that must hold on every run.
func TestChangRobertsAcrossBackends(t *testing.T) {
	for _, rt := range []Runtime{Goroutine{}, &Scheduled{}, Transformed{}, &Networked{}} {
		t.Run(rt.Name(), func(t *testing.T) {
			for _, n := range []int{3, 5, 8, 12, 16} {
				homes := make([]int, n)
				want := make([]int64, n)
				for i := range homes {
					homes[i], want[i] = i, 1
				}
				want[n-1] = int64(n)
				for seed := int64(1); seed <= 3; seed++ {
					cfg := Config{Graph: graph.Cycle(n), Labels: graph.OrientedCycleLabeling(n), Homes: homes, Seed: seed}
					res, err := rt.Run(cfg, ChangRoberts(1))
					if err != nil {
						t.Fatalf("C%d seed %d: %v", n, seed, err)
					}
					if res.Leader() != n-1 || !reflect.DeepEqual(res.Moves, want) {
						t.Fatalf("C%d seed %d: leader %d moves %v (outcomes %v), want leader %d moves %v",
							n, seed, res.Leader(), res.Moves, res.Outcomes, n-1, want)
					}
				}
			}
		})
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{Outcomes: []string{HaltDefeated, HaltLeader}, Moves: []int64{3, 4}}
	if r.Leader() != 1 || r.TotalMoves() != 7 {
		t.Fatalf("helpers: leader %d, total %d", r.Leader(), r.TotalMoves())
	}
	two := &Result{Outcomes: []string{HaltLeader, HaltLeader}}
	if two.Leader() != -1 {
		t.Fatal("two leaders must report none")
	}
	none := &Result{Outcomes: []string{HaltDefeated}}
	if none.Leader() != -1 {
		t.Fatal("no leader must report none")
	}
}

func TestBoardSetDedup(t *testing.T) {
	b := &boardSet{}
	if !b.write(0, "x") || b.write(0, "x") {
		t.Fatal("per-writer dedup broken")
	}
	if !b.write(1, "x") {
		t.Fatal("a second writer must land the same text")
	}
	if got := b.view(); len(got) != 2 || got[0] != "x" || got[1] != "x" {
		t.Fatalf("view %v", got)
	}
}

// TestDFSStepAllocsIndependentOfDepth: a DFSElection step reads its stack
// as a substring of the memory, so a forward step and a backtrack step
// allocate as often at depth 2,000 as at depth 10.
func TestDFSStepAllocsIndependentOfDepth(t *testing.T) {
	p := DFSElection()
	forward := View{Degree: 3, Labels: []int{0, 1, 2}, Entry: 1, Board: []string{TagHome, "v:2"}, ID: 1}
	back := View{Degree: 3, Labels: []int{0, 1, 2}, Entry: 0,
		Board: []string{"t:1:0", "t:1:1", "t:1:2", "v:1", "v:2"}, ID: 1}
	allocs := func(memory string, v View) float64 {
		return testing.AllocsPerRun(100, func() { p.Step(memory, v) })
	}
	var fwd, bwd []float64
	for _, depth := range []int{10, 2000} {
		labels := make([]string, depth)
		for i := range labels {
			labels[i] = strconv.Itoa(i % 3)
		}
		stack := strings.Join(labels, ",")
		memory := "F|" + stack + "|2"
		if got, eff := p.Step(memory, forward); got != "F|"+stack+",1|3" || eff.Move != 0 {
			t.Fatalf("depth %d forward: memory %q move %d", depth, got, eff.Move)
		}
		memory = "B|" + stack + "|2"
		if got, eff := p.Step(memory, back); got != "B|"+stack[:len(stack)-2]+"|2" || eff.Move != (depth-1)%3 {
			t.Fatalf("depth %d backtrack: memory %q move %d", depth, got, eff.Move)
		}
		fwd = append(fwd, allocs("F|"+stack+"|2", forward))
		bwd = append(bwd, allocs("B|"+stack+"|2", back))
	}
	if fwd[0] != fwd[1] || bwd[0] != bwd[1] {
		t.Fatalf("allocations grow with depth: forward %v, backtrack %v at depths 10 and 2,000", fwd, bwd)
	}
	t.Logf("allocations per step: forward %v, backtrack %v", fwd[0], bwd[0])
}

// TestFrameRoundTrip sends frames through one frameConn over a buffer and
// checks the length prefix's rejections: a header above the cap, a payload
// cut short, a record with trailing bytes, and a frame too big to send.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := newFrameConn(&buf)
	for _, in := range []*frame{
		{T: FrameExec, Node: 3, Agent: 1, Mem: "F|2|1", Entry: 0, Move: -1},
		{T: FrameInit, Shard: 2, Spec: "walker:1,3", Agents: 2, Nodes: []nodeInit{
			{V: 2, Labels: []int{0, 1, 2}, Homes: []int{1}},
			{V: 5, Labels: []int{1, 0}},
		}},
		{T: FrameResult, Mem: "\xff\x00<&>\u2028", Move: -1, Halt: "\xfe", Rev: -7, Err: "x"},
	} {
		if err := c.write(in); err != nil {
			t.Fatal(err)
		}
		var out frame
		if err := c.read(&out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&out, in) {
			t.Fatalf("round trip: %+v vs %+v", out, *in)
		}
	}
	var f frame
	// A header above the cap is refused before anything is read.
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	if err := newFrameConn(bytes.NewBuffer(huge)).read(&f); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("oversized frame: %v", err)
	}
	if err := newFrameConn(bytes.NewBuffer([]byte{0, 0, 0, 9, 'x'})).read(&f); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame: %v", err)
	}
	if err := newFrameConn(bytes.NewBuffer([]byte{0, 0, 0, 2})).read(&f); err != io.ErrUnexpectedEOF {
		t.Fatalf("missing payload: %v", err)
	}
	if err := newFrameConn(bytes.NewBuffer(nil)).read(&f); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
	rec := appendFrame(nil, &frame{T: FrameOK})
	for name, payload := range map[string][]byte{
		"trailing byte":   append(append([]byte(nil), rec...), 0),
		"cut record":      rec[:len(rec)-1],
		"empty record":    {},
		"string too long": {9, 'o', 'k'},
		"list too long":   append([]byte{2, 'o', 'k', 0, 0, 0}, 0x7f),
		"varint overflow": append([]byte{2, 'o', 'k'}, bytes.Repeat([]byte{0xff}, 10)...),
	} {
		framed := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
		if err := newFrameConn(bytes.NewBuffer(append(framed, payload...))).read(&f); !errors.Is(err, errBadFrame) {
			t.Fatalf("%s: %v, want errBadFrame", name, err)
		}
	}
	big := &frame{T: FrameExec, Mem: strings.Repeat("m", maxFramePayload)}
	if err := newFrameConn(&bytes.Buffer{}).write(big); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("oversized write: %v", err)
	}
}

// FuzzFrameCodec checks the bus codec both ways. Any frame — arbitrary
// strings (invalid UTF-8 included), negative ints, node lists — comes back
// from the wire equal to what was sent, and any cut of its record or any
// byte appended to it is refused. Arbitrary bytes never panic the decoder:
// they fail with errBadFrame or decode to a frame that round-trips. A
// length prefix above the cap is refused before the payload is read.
func FuzzFrameCodec(f *testing.F) {
	f.Add("exec", "F|2,0|1", "", -1, 3, []byte{0, 1, 2}, []byte{})
	f.Add("result", "\xff\x00a<&>\u2028", "corrupted:\xff", math.MinInt, math.MaxInt, []byte{}, []byte{4, 'e', 'x', 'e', 'c', 0})
	f.Add("init", "", "walker:1,3", 0, 7, []byte{5, 0, 1, 3, 9, 2, 4, 6, 8}, appendFrame(nil, &frame{T: FrameOK}))
	f.Fuzz(func(t *testing.T, typ, mem, halt string, move, rev int, nodes, raw []byte) {
		in := &frame{T: typ, Shard: -rev, Spec: halt + typ, Agents: len(nodes), Node: rev,
			Agent: move / 2, Mem: mem, Entry: -move, Move: move, Halt: halt, Rev: rev, Err: mem + halt}
		for i, b := range nodes {
			switch {
			case i%4 == 0:
				in.Nodes = append(in.Nodes, nodeInit{V: int(int8(b)) * rev})
			case b%2 == 0:
				ni := &in.Nodes[len(in.Nodes)-1]
				ni.Labels = append(ni.Labels, int(int8(b)))
			default:
				ni := &in.Nodes[len(in.Nodes)-1]
				ni.Homes = append(ni.Homes, -int(b)*move)
			}
		}
		var buf bytes.Buffer
		c := newFrameConn(&buf)
		if err := c.write(in); err != nil {
			t.Fatal(err)
		}
		var out frame
		if err := c.read(&out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&out, in) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", out, *in)
		}
		rec := appendFrame(nil, in)
		for _, cut := range []int{0, len(rec) / 2, len(rec) - 1} {
			if err := decodeFrame(rec[:cut], &out); !errors.Is(err, errBadFrame) {
				t.Fatalf("record cut to %d of %d bytes: %v", cut, len(rec), err)
			}
		}
		if err := decodeFrame(append(rec, raw...), &out); len(raw) > 0 && !errors.Is(err, errBadFrame) {
			t.Fatalf("record with %d trailing bytes: %v", len(raw), err)
		}

		if err := decodeFrame(raw, &out); err == nil {
			again := out
			if err := decodeFrame(appendFrame(nil, &out), &again); err != nil || !reflect.DeepEqual(again, out) {
				t.Fatalf("decoded frame does not round-trip: %v %+v vs %+v", err, again, out)
			}
		} else if !errors.Is(err, errBadFrame) {
			t.Fatalf("arbitrary bytes: %v, want errBadFrame", err)
		}
		over := binary.BigEndian.AppendUint32(nil, uint32(maxFramePayload+1+len(raw)))
		if err := newFrameConn(bytes.NewBuffer(append(over, raw...))).read(&out); err == nil || !strings.Contains(err.Error(), "cap") {
			t.Fatalf("payload over the cap: %v", err)
		}
	})
}

// TestServeWorkerErrors drives the worker loop over an in-memory pipe
// through its failure branches: exec before init, a node outside the
// shard, a bad protocol spec, a malformed frame, and an unexpected frame
// type.
func TestServeWorkerErrors(t *testing.T) {
	start := func() (net.Conn, *frameConn, chan error) {
		c, s := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- ServeWorker(s) }()
		return c, newFrameConn(c), done
	}
	var res frame

	c, fc, done := start()
	if err := fc.write(&frame{T: FrameExec, Node: 0}); err != nil {
		t.Fatal(err)
	}
	if err := fc.read(&res); err != nil || !strings.Contains(res.Err, "before init") {
		t.Fatalf("exec before init: %v %+v", err, res)
	}

	if err := fc.write(&frame{T: FrameInit, Spec: "no-such"}); err != nil {
		t.Fatal(err)
	}
	if err := fc.read(&res); err != nil || res.T != FrameOK || res.Err == "" {
		t.Fatalf("bad spec must be refused: %v %+v", err, res)
	}

	if err := fc.write(&frame{T: FrameInit, Spec: "walker:1,1",
		Nodes: []nodeInit{{V: 0, Labels: []int{0, 1}, Homes: []int{0}}}}); err != nil {
		t.Fatal(err)
	}
	if err := fc.read(&res); err != nil || res.Err != "" {
		t.Fatalf("good init refused: %v %+v", err, res)
	}
	if err := fc.write(&frame{T: FrameExec, Node: 5}); err != nil {
		t.Fatal(err)
	}
	if err := fc.read(&res); err != nil || !strings.Contains(res.Err, "not in this shard") {
		t.Fatalf("foreign node accepted: %v %+v", err, res)
	}
	if err := fc.write(&frame{T: FrameExec, Node: 0, Mem: "1", Entry: -1}); err != nil {
		t.Fatal(err)
	}
	if err := fc.read(&res); err != nil || res.T != FrameResult || res.Mem != "0" || res.Move != 1 {
		t.Fatalf("walker step: %v %+v", err, res)
	}
	if err := fc.write(&frame{T: FrameDone}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	c.Close()

	c, fc, done = start()
	if err := fc.write(&frame{T: "mystery"}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Fatal("unexpected frame type accepted")
	}
	c.Close()

	c, _, done = start()
	if _, err := c.Write([]byte{0, 0, 0, 1, 0}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, errBadFrame) {
		t.Fatalf("malformed frame: %v, want errBadFrame", err)
	}
	c.Close()

	c, _, done = start()
	c.Close() // EOF is a clean shutdown
	if err := <-done; err != nil {
		t.Fatalf("EOF must end the worker cleanly: %v", err)
	}
}

func TestRunWorkerBadSpecs(t *testing.T) {
	for _, spec := range []string{"", "unix|/none", "unix|/none|x", "bad-network|addr|0"} {
		if err := RunWorker(spec); err == nil {
			t.Fatalf("RunWorker(%q) succeeded", spec)
		}
	}
}

func TestNetworkedBadConfig(t *testing.T) {
	cfg := Config{Graph: graph.Cycle(3), Homes: []int{0}, Seed: 1}
	if _, err := (&Networked{Spawn: "teleport"}).Run(cfg, DFSElection()); err == nil {
		t.Fatal("unknown spawn mode accepted")
	}
	if _, err := (&Networked{Spawn: SpawnProcess, Transport: "carrier"}).Run(cfg, DFSElection()); err == nil {
		t.Fatal("unknown transport accepted")
	}
}
