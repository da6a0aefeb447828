package group_test

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/group"
)

// RecognizeCtx decides Sabidussi's criterion: C6 is a Cayley graph, with
// a regular subgroup of order 6; the Petersen graph is not.
func ExampleRecognizeCtx() {
	rec, _ := group.RecognizeCtx(context.Background(), graph.Cycle(6))
	fmt.Println(rec.IsCayley, len(rec.Regular))
	rec, _ = group.RecognizeCtx(context.Background(), graph.Petersen())
	fmt.Println(rec.IsCayley)
	// Output:
	// true 6
	// false
}

// TranslationClasses implements the Section 4 criterion: antipodal agents
// on an even ring are preserved by a nontrivial translation (d = 2), so
// election is impossible.
func ExampleCayley_TranslationClasses() {
	c := group.CycleCayley(6)
	black := make([]bool, 6)
	black[0], black[3] = true, true
	classes, d := c.TranslationClasses(black)
	fmt.Println(len(classes), d)
	// Output: 3 2
}
