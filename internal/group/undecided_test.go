package group_test

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"repro/internal/elect"
	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/order"
	"repro/internal/serve"
)

// TestUndecidedCayleyIsReported: a Cayley test that runs out of its search
// budget is reported as undecided, never as a silent false. With the budget
// lowered, K9 with homes {0} is analyzed with CayleyChecked false and
// served with "cayley_undecided": true; at the default budget it is decided
// and served as a Cayley graph, without the field.
func TestUndecidedCayleyIsReported(t *testing.T) {
	analyze := func() map[string]any {
		t.Helper()
		body := []byte(`{"family":"complete","size":9,"homes":[0]}`)
		w := httptest.NewRecorder()
		serve.New(serve.Config{}).ServeHTTP(w, httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(body)))
		if w.Code != 200 {
			t.Fatalf("analyze: %d %s", w.Code, w.Body)
		}
		var resp map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if resp := analyze(); resp["cayley"] != true || resp["cayley_undecided"] != nil {
		t.Fatalf("default budget: %v", resp)
	}
	t.Run("lowered", func(t *testing.T) {
		group.SetSearchBudget(t, 10)
		an, err := elect.Analyze(graph.Complete(9), []int{0}, order.Direct)
		if err != nil {
			t.Fatal(err)
		}
		if an.CayleyChecked || an.Cayley || !an.Thm21Checked {
			t.Fatalf("K9 {0} under a budget of 10 dead ends: %+v", an)
		}
		if resp := analyze(); resp["cayley"] != false || resp["cayley_undecided"] != true {
			t.Fatalf("lowered budget: %v", resp)
		}
	})
}
