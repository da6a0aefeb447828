package runtime_test

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/runtime"
)

// TestNetworkedProcessSpawn runs an election on a real multi-process bus:
// the coordinator re-execs this test binary (TestMain routes the children
// into runtime.MaybeWorker) once per shard, over unix sockets and over TCP,
// and the result must match the in-process transformation exactly.
func TestNetworkedProcessSpawn(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	g := graph.Cycle(6)
	cfg := runtime.Config{Graph: g, Homes: []int{0, 2, 3}, Seed: 5}
	want, err := (runtime.Transformed{}).Run(cfg, runtime.DFSElection())
	if err != nil {
		t.Fatal(err)
	}
	for _, transport := range []string{"unix", "tcp"} {
		transport := transport
		t.Run(transport, func(t *testing.T) {
			nw := &runtime.Networked{
				Workers:   2,
				Spawn:     runtime.SpawnProcess,
				Transport: transport,
			}
			res, err := nw.Run(cfg, runtime.DFSElection())
			if err != nil {
				t.Fatal(err)
			}
			if res.Leader() != want.Leader() {
				t.Fatalf("process bus elected %d, transformed elected %d", res.Leader(), want.Leader())
			}
			for i := range want.Moves {
				if res.Moves[i] != want.Moves[i] {
					t.Fatalf("agent %d: %d moves over %s, transformed made %d",
						i, res.Moves[i], transport, want.Moves[i])
				}
			}
		})
	}
}

// TestNetworkedRejectsUnregisteredProtocol checks the backend refuses a
// protocol whose spec no worker could reconstruct.
func TestNetworkedRejectsUnregisteredProtocol(t *testing.T) {
	cfg := runtime.Config{Graph: graph.Cycle(3), Homes: []int{0}}
	_, err := (&runtime.Networked{}).Run(cfg, anonProtocol{})
	if err == nil {
		t.Fatal("networked backend accepted an unregistered protocol")
	}
}

// anonProtocol has a spec no registry knows.
type anonProtocol struct{}

func (anonProtocol) Spec() string    { return "no-such-protocol" }
func (anonProtocol) Init(int) string { return "" }
func (anonProtocol) Step(m string, _ runtime.View) (string, runtime.Effect) {
	return m, runtime.Effect{Halt: "done", Move: -1}
}

// opaquePayload holds the bytes a text codec mangles: invalid UTF-8, a
// NUL, the line separator U+2028 and HTML-escaped characters.
const opaquePayload = "\xff\x00a<&>\u2028"

func init() {
	runtime.Register("opaque-bytes", func(string) (runtime.Protocol, error) { return opaqueBytes{}, nil })
}

// opaqueBytes walks three hops through port label 0 carrying
// opaquePayload in its memory and marks, then halts with the payload and
// its ID. An agent whose memory arrives altered halts "corrupted:<memory>".
type opaqueBytes struct{}

func (opaqueBytes) Spec() string    { return "opaque-bytes" }
func (opaqueBytes) Init(int) string { return opaquePayload + "3" }
func (opaqueBytes) Step(memory string, v runtime.View) (string, runtime.Effect) {
	left, err := strconv.Atoi(strings.TrimPrefix(memory, opaquePayload))
	if err != nil || !strings.HasPrefix(memory, opaquePayload) {
		return memory, runtime.Effect{Halt: "corrupted:" + memory, Move: -1}
	}
	if left == 0 {
		return memory, runtime.Effect{Halt: opaquePayload + strconv.Itoa(v.ID), Move: -1}
	}
	return opaquePayload + strconv.Itoa(left-1), runtime.Effect{Write: []string{opaquePayload}, Move: 0}
}

// TestMemoryIsOpaqueAcrossBackends: memory and halt strings are bytes, not
// text. Every backend, the bus in pipe and in process spawn mode included,
// must carry opaquePayload unchanged, so outcomes and moves agree.
func TestMemoryIsOpaqueAcrossBackends(t *testing.T) {
	cfg := runtime.Config{Graph: graph.Cycle(5), Homes: []int{0, 2}, Seed: 3}
	backends := []runtime.Runtime{runtime.Goroutine{}, &runtime.Scheduled{}, runtime.Transformed{},
		&runtime.Networked{Workers: 2}}
	if !testing.Short() {
		backends = append(backends,
			&runtime.Networked{Workers: 2, Spawn: runtime.SpawnProcess},
			&runtime.Networked{Workers: 2, Spawn: runtime.SpawnProcess, Transport: "tcp"})
	}
	want := []string{opaquePayload + "1", opaquePayload + "2"}
	for _, rt := range backends {
		res, err := rt.Run(cfg, opaqueBytes{})
		if err != nil {
			t.Fatalf("%s: %v", rt.Name(), err)
		}
		if !reflect.DeepEqual(res.Outcomes, want) || !reflect.DeepEqual(res.Moves, []int64{3, 3}) {
			t.Fatalf("%s %+v: outcomes %q moves %v, want %q and [3 3]", rt.Name(), rt, res.Outcomes, res.Moves, want)
		}
	}
}
