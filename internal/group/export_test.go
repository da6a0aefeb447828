package group

import "testing"

// SetSearchBudget lowers the automorphism search's budget of dead ends
// until t ends.
// It lets tests outside the package drive an undecided oracle end to end.
func SetSearchBudget(t testing.TB, nodes int) {
	old := searchBudget
	searchBudget = nodes
	t.Cleanup(func() { searchBudget = old })
}
