package runtime

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/internal/faults"
	"repro/internal/lazyrand"
)

// The spawn modes of the Networked backend.
const (
	// SpawnPipe runs each worker as a goroutine serving one end of a
	// net.Pipe — the full bus protocol without process boundaries (fast;
	// used by tests and the campaign backend axis).
	SpawnPipe = "pipe"
	// SpawnProcess re-execs the current binary once per shard with
	// WorkerEnv set, connecting over the configured transport. The binary
	// must call MaybeWorker early in main.
	SpawnProcess = "process"
)

// Networked is backend (d): a real message bus. The coordinator owns the
// schedule, the agent messages in flight, and the wire-fault plane; one
// worker per node shard owns its nodes' whiteboards and executes protocol
// steps, talking length-prefixed binary frames (varint records, so memory
// strings cross as opaque bytes) over unix sockets, TCP, or in-process
// pipes. Activations are serialized by the coordinator, so runs are
// deterministic per (Config, Protocol, WireFaults) — which is what makes
// recorded wire-fault plans replayable frame for frame.
//
// Wire faults apply to the agent-message layer (the Figure 1 "a message is
// an agent" channel), not to the coordinator-worker control frames: a
// dropped agent message is lost on the wire and retransmitted by the bus's
// at-least-once delivery after a bounded timeout; delays hold a message
// for a bounded number of scheduler rounds; duplicates deliver an agent
// twice; reorders let a message overtake the receiver's queue.
type Networked struct {
	// Workers is the number of node shards (node v lives on shard
	// v mod Workers); default 2, clamped to the node count.
	Workers int
	// Transport is the socket family of SpawnProcess workers: "unix"
	// (default, socket in a temp dir) or "tcp" (127.0.0.1).
	Transport string
	// Spawn selects SpawnPipe (default) or SpawnProcess.
	Spawn string
	// WireFaults, when set, is consulted on every agent-message send; its
	// recorded plan (WireInjector.Plan) makes the run replayable with
	// faults.ReplayWire.
	WireFaults faults.WireInjector
	// FrameLog, when set, receives one line per control frame
	// (">shard frame" sent, "<shard frame" received, the frame rendered
	// as one JSON object) — the replay artifact the wire-fault round-trip
	// test compares bit for bit.
	FrameLog io.Writer
}

// Name returns "networked".
func (*Networked) Name() string { return "networked" }

// netWorker is the coordinator's handle on one worker.
type netWorker struct {
	conn  *frameConn
	close func()
}

// delayedMsg is an agent message held off the inbox by a drop (awaiting
// retransmission) or delay fault.
type delayedMsg struct {
	due int // steps clock value at which the message is (re)delivered
	to  int
	m   netMsg
}

// Run executes the protocol on the message bus.
func (nw *Networked) Run(cfg Config, p Protocol) (*Result, error) {
	labels, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if _, err := FromSpec(p.Spec()); err != nil {
		return nil, fmt.Errorf("runtime: networked backend needs a registered protocol: %w", err)
	}
	n := cfg.Graph.N()
	w := nw.Workers
	if w <= 0 {
		w = 2
	}
	if w > n {
		w = n
	}
	workers, err := nw.spawn(w)
	if err != nil {
		return nil, err
	}
	defer func() {
		for shard, wk := range workers {
			if wk.conn != nil {
				_ = nw.send(wk.conn, shard, &frame{T: FrameDone})
			}
			wk.close()
		}
	}()

	// req is reused for every exec frame and resp for every answer.
	var req, resp frame

	// Ship each worker its shard and collect the acks.
	for shard := 0; shard < w; shard++ {
		init := &frame{T: FrameInit, Shard: shard, Spec: p.Spec(), Agents: len(cfg.Homes)}
		for v := 0; v < n; v++ {
			if v%w != shard {
				continue
			}
			ni := nodeInit{V: v, Labels: append([]int(nil), labels[v]...)}
			for i, h := range cfg.Homes {
				if h == v {
					ni.Homes = append(ni.Homes, i)
				}
			}
			init.Nodes = append(init.Nodes, ni)
		}
		if err := nw.call(workers[shard].conn, shard, init, &resp, FrameOK); err != nil {
			return nil, err
		}
	}

	res := &Result{
		Outcomes: make([]string, len(cfg.Homes)),
		Moves:    make([]int64, len(cfg.Homes)),
		Backend:  nw.Name(),
	}
	inbox := make([][]netMsg, n)
	park := make([][]parkedMsg, n)
	rev := make([]int, n)
	var delayed []delayedMsg
	halted := 0
	sends := 0
	rng := lazyrand.New(cfg.Seed)

	// deliver routes one agent message through the wire-fault plane.
	deliver := func(from, to int, m netMsg) {
		var act faults.WireAction
		if nw.WireFaults != nil {
			act = nw.WireFaults.Inject(faults.WireOp{Index: sends, Agent: m.agent, From: from, To: to})
		}
		sends++
		if !act.Fault {
			inbox[to] = append(inbox[to], m)
			return
		}
		switch act.Kind {
		case faults.WireDrop, faults.WireDelay:
			// Lost (and retransmitted by the bus) or held on the wire:
			// either way the message surfaces after Arg+1 rounds.
			delayed = append(delayed, delayedMsg{due: res.Steps + 1 + act.Arg, to: to, m: m})
		case faults.WireDup:
			inbox[to] = append(inbox[to], m, m)
		case faults.WireReorder:
			inbox[to] = append([]netMsg{m}, inbox[to]...)
		}
	}

	// The fictitious initial deliveries at the home processors (these are
	// wake-ups, not wire sends — no fault point).
	for i, h := range cfg.Homes {
		inbox[h] = append(inbox[h], netMsg{agent: i, memory: p.Init(i + 1), entry: -1})
	}

	for res.Steps < cfg.MaxSteps && halted < len(cfg.Homes) {
		// Surface due retransmissions and delayed deliveries.
		kept := delayed[:0]
		for _, d := range delayed {
			if d.due <= res.Steps {
				inbox[d.to] = append(inbox[d.to], d.m)
			} else {
				kept = append(kept, d)
			}
		}
		delayed = kept

		var busy []int
		for v := 0; v < n; v++ {
			if len(inbox[v]) > 0 {
				busy = append(busy, v)
				continue
			}
			for _, pk := range park[v] {
				if pk.seenRev != rev[v] {
					busy = append(busy, v)
					break
				}
			}
		}
		if len(busy) == 0 {
			if len(delayed) == 0 {
				break
			}
			// Everything in flight is held on the wire: advance the clock
			// to the earliest due delivery.
			next := delayed[0].due
			for _, d := range delayed[1:] {
				if d.due < next {
					next = d.due
				}
			}
			res.Steps = next
			continue
		}
		v := busy[rng.Intn(len(busy))]
		res.Steps++
		var m netMsg
		if len(inbox[v]) > 0 {
			m = inbox[v][0]
			inbox[v] = inbox[v][1:]
		} else {
			found := false
			for idx, pk := range park[v] {
				if pk.seenRev != rev[v] {
					m = pk.netMsg
					park[v] = append(park[v][:idx], park[v][idx+1:]...)
					found = true
					break
				}
			}
			if !found {
				continue
			}
		}
		req = frame{T: FrameExec, Node: v, Agent: m.agent, Mem: m.memory, Entry: m.entry}
		if err := nw.call(workers[v%w].conn, v%w, &req, &resp, FrameResult); err != nil {
			return res, err
		}
		rev[v] = resp.Rev
		switch {
		case resp.Halt != "":
			// First halt wins: a duplicated agent's second copy halting
			// again must not double-count.
			if res.Outcomes[m.agent] == "" {
				res.Outcomes[m.agent] = resp.Halt
				halted++
			}
		case resp.Move >= 0:
			moved := false
			for port, h := range cfg.Graph.Ports(v) {
				if labels[v][port] == resp.Move {
					res.Moves[m.agent]++
					deliver(v, h.To, netMsg{agent: m.agent, memory: resp.Mem, entry: labels[h.To][h.Twin]})
					moved = true
					break
				}
			}
			if !moved {
				return res, fmt.Errorf("runtime: networked: no port labeled %d at node %d", resp.Move, v)
			}
		default:
			park[v] = append(park[v], parkedMsg{netMsg: netMsg{agent: m.agent, memory: resp.Mem, entry: m.entry}, seenRev: resp.Rev})
		}
	}
	if halted < len(cfg.Homes) {
		return res, errors.New("runtime: networked run ended with unhalted agents (deadlock, lost agent, or step budget)")
	}
	return res, nil
}

// send writes one control frame to a worker, logging it.
func (nw *Networked) send(c *frameConn, shard int, f *frame) error {
	if err := c.write(f); err != nil {
		return fmt.Errorf("runtime: worker %d: %w", shard, err)
	}
	nw.logFrame('>', shard, f)
	return nil
}

// call sends req to a worker and reads its answer into resp, which must be
// a want frame without an error.
func (nw *Networked) call(c *frameConn, shard int, req, resp *frame, want string) error {
	if err := nw.send(c, shard, req); err != nil {
		return err
	}
	if err := c.read(resp); err != nil {
		return fmt.Errorf("runtime: worker %d: %w", shard, err)
	}
	nw.logFrame('<', shard, resp)
	if resp.T != want {
		return fmt.Errorf("runtime: worker %d answered %q to %s", shard, resp.T, req.T)
	}
	if resp.Err != "" {
		return fmt.Errorf("runtime: worker %d refused %s: %s", shard, req.T, resp.Err)
	}
	return nil
}

// logFrame writes one FrameLog line: the direction, the shard, and the
// frame as JSON. Only the log renders JSON; the wire never does.
func (nw *Networked) logFrame(dir byte, shard int, f *frame) {
	if nw.FrameLog == nil {
		return
	}
	// A frame holds only strings, ints and int slices, so Marshal cannot
	// fail; invalid UTF-8 renders as U+FFFD.
	line, _ := json.Marshal(f)
	fmt.Fprintf(nw.FrameLog, "%c%d %s\n", dir, shard, line)
}

// spawn brings up the worker set in the configured mode.
func (nw *Networked) spawn(w int) ([]netWorker, error) {
	switch nw.Spawn {
	case "", SpawnPipe:
		workers := make([]netWorker, w)
		for i := range workers {
			c, s := net.Pipe()
			go func() {
				_ = ServeWorker(s) // errors surface as coordinator-side frame errors
			}()
			workers[i] = netWorker{conn: newFrameConn(c), close: func() { c.Close(); s.Close() }}
		}
		return workers, nil
	case SpawnProcess:
		return nw.spawnProcesses(w)
	default:
		return nil, fmt.Errorf("runtime: unknown spawn mode %q", nw.Spawn)
	}
}

// spawnProcesses re-execs the current binary once per shard and collects
// the dialed-in connections by hello shard.
func (nw *Networked) spawnProcesses(w int) ([]netWorker, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	network, addr := "unix", ""
	var tmp string
	switch nw.Transport {
	case "", "unix":
		tmp, err = os.MkdirTemp("", "electbus")
		if err != nil {
			return nil, err
		}
		addr = filepath.Join(tmp, "bus.sock")
	case "tcp":
		network, addr = "tcp", "127.0.0.1:0"
	default:
		return nil, fmt.Errorf("runtime: unknown transport %q", nw.Transport)
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		if tmp != "" {
			os.RemoveAll(tmp)
		}
		return nil, err
	}
	cleanupAll := func(cmds []*exec.Cmd, conns []net.Conn) {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
		for _, cmd := range cmds {
			if cmd != nil && cmd.Process != nil {
				_ = cmd.Process.Kill()
				_ = cmd.Wait()
			}
		}
		ln.Close()
		if tmp != "" {
			os.RemoveAll(tmp)
		}
	}
	cmds := make([]*exec.Cmd, w)
	for shard := 0; shard < w; shard++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			fmt.Sprintf("%s=%s|%s|%d", WorkerEnv, network, ln.Addr().String(), shard))
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			cleanupAll(cmds, nil)
			return nil, fmt.Errorf("runtime: spawn worker %d: %w", shard, err)
		}
		cmds[shard] = cmd
	}
	conns := make([]net.Conn, w)
	fcs := make([]*frameConn, w)
	for i := 0; i < w; i++ {
		conn, err := acceptTimeout(ln, 30*time.Second)
		if err != nil {
			cleanupAll(cmds, conns)
			return nil, fmt.Errorf("runtime: accept worker: %w", err)
		}
		fc := newFrameConn(conn)
		var hello frame
		err = fc.read(&hello)
		if err != nil || hello.T != FrameHello || hello.Shard < 0 || hello.Shard >= w || conns[hello.Shard] != nil {
			conn.Close()
			cleanupAll(cmds, conns)
			return nil, fmt.Errorf("runtime: bad worker hello (err=%v)", err)
		}
		conns[hello.Shard], fcs[hello.Shard] = conn, fc
	}
	workers := make([]netWorker, w)
	for shard := range workers {
		shard := shard
		conn := conns[shard]
		cmd := cmds[shard]
		workers[shard] = netWorker{conn: fcs[shard], close: func() {
			conn.Close()
			_ = cmd.Wait()
			if shard == 0 {
				ln.Close()
				if tmp != "" {
					os.RemoveAll(tmp)
				}
			}
		}}
	}
	return workers, nil
}

// acceptTimeout accepts one connection or fails after d.
func acceptTimeout(ln net.Listener, d time.Duration) (net.Conn, error) {
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.c, r.err
	case <-timer.C:
		return nil, errors.New("runtime: timed out waiting for a worker to dial in")
	}
}
