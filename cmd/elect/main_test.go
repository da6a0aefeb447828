package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// Regenerate the golden files with: go test ./cmd/elect -run Golden -update
var update = flag.Bool("update", false, "rewrite the golden files from current output")

// wallClock matches the only nondeterministic token of the output — the
// elapsed-time figure on the totals line.
var wallClock = regexp.MustCompile(`, [0-9][^,]* wall clock`)

func normalize(out string) string {
	return wallClock.ReplaceAllString(out, ", 0s wall clock")
}

// TestRunGolden pins the full human-facing output of cmd/elect for one
// elected, one unsolvable, and two fault-injected runs (one surviving, one
// crash-deadlocked). Everything except the wall-clock figure is
// deterministic under a serialized strategy, so any drift — outcome lines,
// cost counters, fault manifests, verdict phrasing — fails the diff.
func TestRunGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"cycle6-elected", []string{"-graph", "cycle", "-n", "6", "-homes", "0,2", "-wake-all", "-strategy", "random", "-seed", "1"}},
		{"cycle6-unsolvable", []string{"-graph", "cycle", "-n", "6", "-homes", "0,3", "-wake-all", "-strategy", "random", "-seed", "1"}},
		{"star4-stale-reads", []string{"-graph", "star", "-n", "4", "-homes", "1,2", "-wake-all", "-faults", "stale-reads", "-seed", "3"}},
		{"star4-crash-deadlock", []string{"-graph", "star", "-n", "4", "-homes", "1,2", "-wake-all", "-faults", "crash-frontrunner", "-seed", "2"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := run(tc.args, &buf)
			got := normalize(buf.String())
			if err != nil {
				// The error text is part of the pinned behavior (the
				// crash-deadlock case must keep failing the same way).
				got += "error: " + err.Error() + "\n"
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if got != string(want) {
				t.Errorf("output drifted from %s (regenerate with -update if intended)\n--- want ---\n%s--- got ---\n%s",
					path, want, got)
			}
		})
	}
}

// TestRecordReplayRoundTrip records scheduled runs with -record and replays
// each file with -replay: the replay must print the same agent lines and
// follow the recorded schedule (and fault plan) exactly. The cases cover a
// grid (a family only the shared graph registry builds), the hair ordering
// carried in the file (on wheel 5 {0,1} it elects the other agent, so a
// replay that dropped it would diverge), and the gather protocol.
func TestRecordReplayRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"grid3-stale-reads", []string{"-graph", "grid", "-n", "3", "-homes", "0,4", "-faults", "stale-reads"}},
		{"cycle6-hairs-same-class", []string{"-graph", "cycle", "-n", "6", "-homes", "0,2", "-hairs", "-strategy", "same-class"}},
		{"wheel5-hairs-same-class", []string{"-graph", "wheel", "-n", "5", "-homes", "0,1", "-hairs", "-strategy", "same-class"}},
		{"path5-gather", []string{"-graph", "path", "-n", "5", "-homes", "0,4", "-protocol", "gather", "-strategy", "random"}},
	}
	agentLines := func(out string) []string {
		var lines []string
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "agent ") {
				lines = append(lines, l)
			}
		}
		return lines
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.json")
			var rec, rep bytes.Buffer
			if err := run(append(tc.args, "-record", path), &rec); err != nil {
				t.Fatalf("record: %v\n%s", err, rec.String())
			}
			if err := run([]string{"-replay", path}, &rep); err != nil {
				t.Fatalf("replay: %v\n%s", err, rep.String())
			}
			want, got := agentLines(rec.String()), agentLines(rep.String())
			if len(want) == 0 || strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("replay drifted from the recording\n--- recorded ---\n%s--- replayed ---\n%s", rec.String(), rep.String())
			}
			if !strings.Contains(rep.String(), "(0 divergences)") {
				t.Fatalf("replay diverged:\n%s", rep.String())
			}
			if strings.Contains(rec.String(), "faults:") && !strings.Contains(rep.String(), "(0 unapplied events)") {
				t.Fatalf("fault plan not re-injected exactly:\n%s", rep.String())
			}
		})
	}
}

// totalMoves reads the move count off the totals line.
var totalMoves = regexp.MustCompile(`(?m)^total: (\d+) moves`)

// TestTraceListsEveryMove runs free-running elections, whose agents emit
// events from their own goroutines at once, with -trace: the trace must
// print one move line per move the run counted, so no event is lost on
// the way from the agents to the output.
func TestTraceListsEveryMove(t *testing.T) {
	for _, args := range [][]string{
		{"-graph", "hypercube", "-n", "4", "-homes", "0,7,9", "-trace"},
		{"-graph", "cycle", "-n", "9", "-homes", "0,3,6", "-trace"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		out := buf.String()
		m := totalMoves.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("%v: no totals line:\n%s", args, out)
		}
		if got := strings.Count(out, " -> node "); strconv.Itoa(got) != m[1] {
			t.Errorf("%v: %d move lines, totals line says %s moves", args, got, m[1])
		}
	}
}
