package exp

import (
	"strings"
	"testing"

	"repro/internal/runtime"
)

func TestTableRendering(t *testing.T) {
	out := Table([]string{"a", "bbb"}, [][]string{{"xx", "y"}, {"z", "wwww"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines: %d\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "--") {
		t.Fatalf("missing separator: %q", lines[1])
	}
}

func TestFirstSeenCoding(t *testing.T) {
	got := FirstSeenCoding([]string{"*", "o", ".", "*"})
	want := []int{1, 2, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coding %v, want %v", got, want)
		}
	}
	if len(FirstSeenCoding(nil)) != 0 {
		t.Fatal("empty coding should be empty")
	}
}

func TestFig2Experiments(t *testing.T) {
	if out, err := Fig2AB(); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if out, err := Fig2C(); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
}

func TestAnonymousExperiment(t *testing.T) {
	out, err := RunAnonymousExperiment()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "contradiction") {
		t.Error("missing contradiction line")
	}
	// The self-check must reject a C6 trace that departs from the C3 one
	// and a C6 agent that is not elected.
	c3, c6, err := lockstepPair()
	if err != nil {
		t.Fatal(err)
	}
	diverged := anonRun{outcomes: c6.outcomes, traces: [][]string{c6.traces[0], c6.traces[1][:2]}}
	defeated := anonRun{outcomes: []string{"leader", "defeated"}, traces: c6.traces}
	for _, bad := range []anonRun{diverged, defeated} {
		if checkContradiction(c3, bad) == nil {
			t.Errorf("self-check accepted %+v", bad)
		}
	}
}

// TestAnonymousLockstepTraces checks the Section 1.3 argument step by step,
// apart from the experiment's self-check: under lockstep with identities
// withheld, the lone C3 agent walks the ring once (3 moves and a halting
// step) and is elected, and each antipodal C6 agent replays that local
// trace exactly and is elected too.
func TestAnonymousLockstepTraces(t *testing.T) {
	c3, c6, err := lockstepPair()
	if err != nil {
		t.Fatal(err)
	}
	lone := c3.traces[0]
	if len(lone) != 4 || c3.outcomes[0] != runtime.HaltLeader {
		t.Fatalf("C3: outcome %q after %d steps, want leader after 4", c3.outcomes[0], len(lone))
	}
	for i, trace := range c6.traces {
		if len(trace) != len(lone) {
			t.Fatalf("C6 agent %d: %d steps, the C3 agent %d", i, len(trace), len(lone))
		}
		for s := range trace {
			if trace[s] != lone[s] {
				t.Fatalf("C6 agent %d, step %d: %s\nC3 agent: %s", i, s, trace[s], lone[s])
			}
		}
		if c6.outcomes[i] != runtime.HaltLeader {
			t.Fatalf("C6 agent %d halted %q, want leader", i, c6.outcomes[i])
		}
	}
}

func TestElectExperiment(t *testing.T) {
	out, rows, err := RunElectExperiment(1)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if len(rows) != len(ElectSuite()) {
		t.Fatalf("rows %d, want %d", len(rows), len(ElectSuite()))
	}
	for _, r := range rows {
		if r.Ratio > 40 {
			t.Errorf("%s: ratio %.1f exceeds constant bound", r.Name, r.Ratio)
		}
	}
}

func TestPetersenExperiment(t *testing.T) {
	out, err := RunPetersenExperiment(1)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
}

func TestCostExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out, rows, err := RunCostExperiment(1)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if len(rows) == 0 {
		t.Fatal("no cost rows")
	}
}

func TestCayleyExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out, rows, err := RunCayleyExperiment(1)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out, rows, err := Table1(1)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	if rows[0].Universal != "No" || rows[2].Universal != "Yes" {
		t.Errorf("Table 1 corners wrong: %+v", rows)
	}
	if !strings.Contains(rows[1].EffectualCayley, "Yes") {
		t.Errorf("qualitative Cayley cell: %q", rows[1].EffectualCayley)
	}
}

func TestSkipAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out, err := RunSkipAblation(1)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "moves(literal)") {
		t.Error("missing ablation column")
	}
}

func TestSharedHomesExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out, err := RunSharedHomesExperiment(1)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "weighted placements") {
		t.Error("missing sweep summary")
	}
}

func TestDegradationExperiment(t *testing.T) {
	out, rows, err := RunDegradationExperiment(1)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, r := range rows {
		if r.Factor <= 0 || r.Factor > 20 {
			t.Errorf("%s: degradation factor %.2f out of plausible range", r.Name, r.Factor)
		}
	}
}

func TestFig1Experiment(t *testing.T) {
	out, err := RunFig1Experiment(1)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, name := range []string{"identical", "goroutine", "scheduled", "transformed", "networked"} {
		if !strings.Contains(out, name) {
			t.Errorf("output lacks %q", name)
		}
	}
	// The self-check must reject a backend that diverges or elects another
	// agent.
	agree := func() *runtime.Result {
		return &runtime.Result{Outcomes: []string{"defeated", "defeated", "leader"}, Moves: []int64{1, 1, 3}}
	}
	if err := checkFig1(3, []*runtime.Result{agree(), agree()}); err != nil {
		t.Fatal(err)
	}
	moved := agree()
	moved.Moves[0] = 2
	wrong := agree()
	wrong.Outcomes = []string{"leader", "defeated", "defeated"}
	for _, bad := range []*runtime.Result{moved, wrong} {
		if checkFig1(3, []*runtime.Result{agree(), bad}) == nil {
			t.Errorf("self-check accepted a diverging backend %+v", bad)
		}
	}
}
