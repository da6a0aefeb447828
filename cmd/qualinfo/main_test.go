package main

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/elect"
	"repro/internal/order"
)

var cayleyLine = regexp.MustCompile(`Cayley graph: (yes, d = (\d+)|no|undecided)`)

// cayleyVerdict runs qualinfo and returns its Cayley line's answer: d for
// a Cayley graph, 0 for "no", -1 for "undecided".
func cayleyVerdict(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("qualinfo %v: %v", args, err)
	}
	out := buf.String()
	m := cayleyLine.FindStringSubmatch(out)
	switch {
	case m == nil:
		t.Fatalf("qualinfo %v printed no Cayley verdict:\n%s", args, out)
	case m[1] == "no":
		return 0, out
	case m[1] == "undecided":
		return -1, out
	}
	d, err := strconv.Atoi(m[2])
	if err != nil {
		t.Fatal(err)
	}
	return d, out
}

// TestPrismVerdictIsNumberingFree: the prism on 10 nodes is a Cayley graph
// of both Z10 and the dihedral group D5. Homes {0, 6} as numbered are
// preserved by no translation of the group found on the numbered graph,
// yet by two of the group found on the canonical relabeling, the one every
// CayleyElect agent uses. qualinfo must print the agents' d.
func TestPrismVerdictIsNumberingFree(t *testing.T) {
	d, out := cayleyVerdict(t, "-graph", "prism", "-n", "5", "-homes", "0,6")
	if d != 2 || !strings.Contains(out, "Section 4 verdict: impossible") {
		t.Fatalf("prism 5, homes {0, 6}: want d = 2 and impossible, got:\n%s", out)
	}
}

// TestTranslationCountMatchesAnalyze: on cycles, prisms and complete graphs
// with two homes, the d qualinfo prints is the TranslationD that
// elect.Analyze serves.
func TestTranslationCountMatchesAnalyze(t *testing.T) {
	type fam struct {
		name   string
		lo, hi int
	}
	for _, f := range []fam{{"cycle", 3, 8}, {"prism", 3, 8}, {"complete", 3, 7}} {
		for size := f.lo; size <= f.hi; size++ {
			g, err := campaign.BuildGraph(f.name, size)
			if err != nil {
				t.Fatal(err)
			}
			for v := 1; v < g.N(); v++ {
				homes := []int{0, v}
				a, err := elect.Analyze(g, homes, order.Direct)
				if err != nil {
					t.Fatal(err)
				}
				want := 0
				if a.Cayley {
					want = a.TranslationD
				}
				if !a.CayleyChecked {
					want = -1
				}
				got, _ := cayleyVerdict(t, "-graph", f.name, "-n", strconv.Itoa(size), "-homes", fmt.Sprintf("0,%d", v))
				if got != want {
					t.Errorf("%s %d, homes %v: qualinfo d = %d, Analyze d = %d", f.name, size, homes, got, want)
				}
			}
		}
	}
}
