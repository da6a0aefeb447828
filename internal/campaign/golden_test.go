package campaign

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

// Regenerate with: go test ./internal/campaign -run Golden -update
var update = flag.Bool("update", false, "rewrite the golden files from current output")

// TestRunRecordGolden pins the exact JSONL record a campaign run emits —
// field names, fault manifest encoding, violation shape, OK semantics, and
// the replay bundle of a violating run. The record is the persistent
// interface other tooling parses (and cmd/elect -replay reads its bundle),
// so schema drift must be a conscious, golden-updating change.
func TestRunRecordGolden(t *testing.T) {
	cases := []struct {
		golden string
		faults []string
		opt    Options
	}{
		{"fault-run-record", []string{"crash-frontrunner"}, Options{}},
		{"violating-run-record", nil, Options{
			testProtocol: func(Run, int) sim.Protocol { return selfCrowning },
		}},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			spec := Spec{
				Families:   []FamilySpec{{Family: "cycle", Sizes: []int{6}, Placement: "spread", R: 3}},
				Seeds:      SeedRange{From: 1, To: 1},
				Protocol:   ProtoElect,
				Strategies: []string{"random"},
				Faults:     tc.faults,
			}
			var jsonl bytes.Buffer
			opt := tc.opt
			opt.JSONL, opt.Workers = &jsonl, 1
			if _, err := Execute(spec, opt); err != nil {
				t.Fatal(err)
			}
			var rec RunResult
			if err := json.Unmarshal(jsonl.Bytes(), &rec); err != nil {
				t.Fatalf("campaign emitted unparsable JSONL: %v", err)
			}
			rec.ElapsedMS = 0 // the only wall-clock-dependent field
			got, err := json.MarshalIndent(&rec, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')

			path := filepath.Join("testdata", tc.golden+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("JSONL record drifted from %s (regenerate with -update if intended)\n--- want ---\n%s--- got ---\n%s",
					path, want, got)
			}
		})
	}
}
