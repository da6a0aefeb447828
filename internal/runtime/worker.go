package runtime

import (
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
)

// WorkerEnv is the environment variable that turns a process into a bus
// worker: its value is "network|address|shard" (e.g.
// "unix|/tmp/bus.sock|0"). Binaries that can serve as networked-backend
// workers call MaybeWorker first thing in main; the coordinator sets the
// variable when re-execing them.
const WorkerEnv = "REPRO_ELECTNODE_WORKER"

// MaybeWorker turns the current process into a bus worker when WorkerEnv
// is set: it dials the coordinator, serves its shard until the FrameDone
// handshake, and exits the process. When the variable is unset it returns
// immediately, so every participating binary can call it unconditionally.
func MaybeWorker() {
	spec := os.Getenv(WorkerEnv)
	if spec == "" {
		return
	}
	if err := RunWorker(spec); err != nil {
		fmt.Fprintln(os.Stderr, "electnode worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// RunWorker dials the coordinator named by a WorkerEnv spec
// ("network|address|shard"), announces its shard, and serves activations
// until the coordinator sends FrameDone.
func RunWorker(spec string) error {
	parts := strings.Split(spec, "|")
	if len(parts) != 3 {
		return fmt.Errorf("runtime: bad worker spec %q (want network|address|shard)", spec)
	}
	shard, err := strconv.Atoi(parts[2])
	if err != nil {
		return fmt.Errorf("runtime: bad worker shard in %q", spec)
	}
	conn, err := net.Dial(parts[0], parts[1])
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := newFrameConn(conn).write(&frame{T: FrameHello, Shard: shard}); err != nil {
		return err
	}
	return ServeWorker(conn)
}

// workerShard is the worker-side state: the boards, labels and revision
// counters of the nodes this worker owns, plus the protocol reconstructed
// from the init frame's spec.
type workerShard struct {
	proto  Protocol
	boards map[int]*boardSet
	rev    map[int]int
	labels map[int][]int
}

// ServeWorker runs the worker side of the bus protocol on an established
// connection: one FrameInit builds the shard, then every FrameExec is
// answered with a FrameResult until FrameDone (or EOF) ends the session.
// It serves net.Pipe ends and sockets alike — the in-process spawn mode
// and the re-exec'd worker processes share this loop.
func ServeWorker(conn io.ReadWriter) error {
	c := newFrameConn(conn)
	var sh *workerShard
	var in, out frame
	for {
		if err := c.read(&in); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		switch in.T {
		case FrameInit:
			sh = &workerShard{
				boards: make(map[int]*boardSet),
				rev:    make(map[int]int),
				labels: make(map[int][]int),
			}
			out = frame{T: FrameOK}
			p, err := FromSpec(in.Spec)
			if err != nil {
				out.Err = err.Error()
			} else {
				sh.proto = p
				for _, ni := range in.Nodes {
					b := &boardSet{}
					for _, agent := range ni.Homes {
						b.write(agent, TagHome)
					}
					sh.boards[ni.V] = b
					sh.rev[ni.V] = 0
					sh.labels[ni.V] = ni.Labels
				}
			}
		case FrameExec:
			out = frame{T: FrameResult, Node: in.Node, Agent: in.Agent}
			if sh == nil || sh.proto == nil {
				out.Err = "runtime: exec before init"
			} else if b, ok := sh.boards[in.Node]; !ok {
				out.Err = fmt.Sprintf("runtime: node %d is not in this shard", in.Node)
			} else {
				mem, eff := sh.proto.Step(in.Mem, View{
					Degree: len(sh.labels[in.Node]),
					Labels: append([]int(nil), sh.labels[in.Node]...),
					Entry:  in.Entry,
					Board:  b.view(),
					ID:     in.Agent + 1,
				})
				for _, w := range eff.Write {
					if b.write(in.Agent, w) {
						sh.rev[in.Node]++
					}
				}
				out.Mem = mem
				out.Move = eff.Move
				out.Halt = eff.Halt
				out.Rev = sh.rev[in.Node]
				if eff.Halt != "" {
					out.Move = -1
				}
			}
		case FrameDone:
			return nil
		default:
			return fmt.Errorf("runtime: worker got unexpected frame %q", in.T)
		}
		if err := c.write(&out); err != nil {
			return err
		}
	}
}
