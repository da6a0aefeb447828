package serve

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/campaign"
)

// Artifact is a stored record of one /v1/elect run. The request pins the
// instance, seed, protocol and adversary axes; the result carries the
// outcome, the fault plan (base64, faults.DecodePlanString) and, when a
// scheduled run broke an invariant, result.replay: the replay bundle that
// cmd/elect -replay re-executes bit-for-bit.
type Artifact struct {
	ID        string             `json:"id"`
	CreatedAt time.Time          `json:"created_at"`
	Request   ElectRequest       `json:"request"`
	Result    campaign.RunResult `json:"result"`
}

// artifactStore is a bounded FIFO of replay bundles: the newest
// MaxArtifacts survive, older ones evict silently (a 404 tells the client
// the bundle aged out).
type artifactStore struct {
	mu    sync.Mutex
	max   int
	seq   int64
	byID  map[string]*Artifact
	order []string
}

func newArtifactStore(max int) *artifactStore {
	return &artifactStore{max: max, byID: make(map[string]*Artifact)}
}

// put stores a bundle and returns its ID.
func (as *artifactStore) put(req ElectRequest, res campaign.RunResult) string {
	as.mu.Lock()
	defer as.mu.Unlock()
	as.seq++
	id := fmt.Sprintf("run-%08d", as.seq)
	as.byID[id] = &Artifact{ID: id, CreatedAt: time.Now(), Request: req, Result: res}
	as.order = append(as.order, id)
	for len(as.order) > as.max {
		evict := as.order[0]
		as.order = as.order[1:]
		delete(as.byID, evict)
	}
	return id
}

// get looks a bundle up by ID.
func (as *artifactStore) get(id string) (*Artifact, bool) {
	as.mu.Lock()
	defer as.mu.Unlock()
	a, ok := as.byID[id]
	return a, ok
}
