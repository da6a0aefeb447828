package runtime_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/runtime"
)

// Regenerate the golden frame log with:
// go test ./internal/runtime -run TestFrameLogGolden -update
var update = flag.Bool("update", false, "rewrite the golden files from current output")

// TestFrameLogGolden pins the bus transcript of CI's networked smoke run
// (cmd/electnode -graph cycle:9 -homes 0,3,6 -seed 7 -workers 3
// -wire-fault mixed -wire-seed 3): every frame field, and every memory
// string DFSElection writes, line for line. The pipe run here, and the
// smoke run's worker processes over a unix socket, must write this file.
func TestFrameLogGolden(t *testing.T) {
	inj, err := faults.NewWire("mixed", 3)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	nw := &runtime.Networked{Workers: 3, WireFaults: inj, FrameLog: &log}
	cfg := runtime.Config{Graph: graph.Cycle(9), Homes: []int{0, 3, 6}, Seed: 7}
	if _, err := nw.Run(cfg, runtime.DFSElection()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "cycle9-mixed.frames.golden")
	if *update {
		if err := os.WriteFile(path, log.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(log.Bytes(), want) {
		got, exp := bytes.Split(log.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(got) && i < len(exp); i++ {
			if !bytes.Equal(got[i], exp[i]) {
				t.Fatalf("frame log line %d:\n got %s\nwant %s", i+1, got[i], exp[i])
			}
		}
		t.Fatalf("frame log has %d lines, golden has %d", len(got), len(exp))
	}
}

// TestWireFaultsPreserveElection runs DFSElection on the networked backend
// under every wire-fault strategy and requires the leader to survive: the
// bus's at-least-once delivery makes drops retransmissions, delays and
// reorders only perturb the schedule, and duplicates are absorbed by the
// per-writer board dedup and first-halt-wins accounting.
func TestWireFaultsPreserveElection(t *testing.T) {
	g := graph.Petersen()
	cfg := runtime.Config{Graph: g, Homes: []int{0, 3, 7}, Seed: 11}
	clean, err := (&runtime.Networked{Workers: 2}).Run(cfg, runtime.DFSElection())
	if err != nil {
		t.Fatal(err)
	}
	want := clean.Leader()
	if want != len(cfg.Homes)-1 {
		t.Fatalf("fault-free leader %d is not the maximum identity", want)
	}
	for _, strat := range faults.WireStrategies() {
		strat := strat
		t.Run(strat, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 4; seed++ {
				inj, err := faults.NewWire(strat, seed)
				if err != nil {
					t.Fatal(err)
				}
				res, err := (&runtime.Networked{Workers: 2, WireFaults: inj}).Run(cfg, runtime.DFSElection())
				if err != nil {
					t.Fatalf("seed %d (%s): %v", seed, inj.Plan().Summary(), err)
				}
				if got := res.Leader(); got != want {
					t.Fatalf("seed %d: leader %d under %s faults, want %d (%s)",
						seed, got, strat, want, inj.Plan().Summary())
				}
			}
		})
	}
}

// TestWireFaultReplayRoundTrip is the record/replay contract of backend
// (d): a networked run records its wire-fault plan and frame log; replaying
// the plan with faults.ReplayWire against the same (Config, Protocol) must
// reproduce the run frame for frame — the two logs are compared bit for
// bit — and the plan must survive its own encoding.
func TestWireFaultReplayRoundTrip(t *testing.T) {
	g := graph.Hypercube(3)
	cfg := runtime.Config{Graph: g, Homes: []int{0, 5, 6}, Seed: 7}
	rec, err := faults.NewWire("mixed", 3)
	if err != nil {
		t.Fatal(err)
	}
	var recLog bytes.Buffer
	recRes, err := (&runtime.Networked{Workers: 3, WireFaults: rec, FrameLog: &recLog}).
		Run(cfg, runtime.DFSElection())
	if err != nil {
		t.Fatal(err)
	}
	plan := rec.Plan()
	if len(plan.Events) == 0 {
		t.Fatal("recording run injected no wire faults; the round trip proves nothing")
	}

	// The plan survives its wire encoding.
	decoded, err := faults.DecodeWirePlanString(plan.EncodeString())
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded.Events) != len(plan.Events) {
		t.Fatalf("decoded %d events, recorded %d", len(decoded.Events), len(plan.Events))
	}

	var repLog bytes.Buffer
	replay := faults.ReplayWire(decoded)
	repRes, err := (&runtime.Networked{Workers: 3, WireFaults: replay, FrameLog: &repLog}).
		Run(cfg, runtime.DFSElection())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recLog.Bytes(), repLog.Bytes()) {
		t.Fatalf("replay frame log diverged from the recording:\nrecorded %d bytes, replayed %d bytes",
			recLog.Len(), repLog.Len())
	}
	if recRes.Leader() != repRes.Leader() {
		t.Fatalf("replay elected %d, recording elected %d", repRes.Leader(), recRes.Leader())
	}
	if got := replay.Plan(); len(got.Events) != len(plan.Events) {
		t.Fatalf("replay re-issued %d events, recorded %d", len(got.Events), len(plan.Events))
	}
}
