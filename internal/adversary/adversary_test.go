package adversary

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// TestScheduleFileRoundTrip covers the replay artifact serialization.
func TestScheduleFileRoundTrip(t *testing.T) {
	sched := &sim.Schedule{Grants: []int32{0, 1, 1, 0, 2}}
	f := &ScheduleFile{
		Family: "cycle", Size: 6, Homes: []int{0, 3},
		Seed: 7, Protocol: "elect", WakeAll: true, Hairs: true,
		Strategy: StratRandom,
		Schedule: EncodeScheduleString(sched),
	}
	path := filepath.Join(t.TempDir(), "violation.json")
	if err := f.WriteFile(path); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := LoadScheduleFile(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, f)
	}
	dec, err := got.Decode()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dec.Grants) != len(sched.Grants) {
		t.Fatalf("grants %v, want %v", dec.Grants, sched.Grants)
	}
	for i := range dec.Grants {
		if dec.Grants[i] != sched.Grants[i] {
			t.Fatalf("grants %v, want %v", dec.Grants, sched.Grants)
		}
	}
}

// TestNewStrategyUnknown checks the self-explanatory error path.
func TestNewStrategyUnknown(t *testing.T) {
	if _, err := NewStrategy("nope", 1, nil); err == nil {
		t.Fatal("want error for unknown strategy")
	}
	for _, name := range Strategies() {
		if _, err := NewStrategy(name, 1, []int{0, 0}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
