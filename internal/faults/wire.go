package faults

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/lazyrand"
)

// WireKind classifies one injected wire fault on the networked backend's
// message bus (internal/runtime, backend (d)).
type WireKind uint8

// The wire-fault kinds. The bus provides at-least-once delivery, so a
// dropped frame is retransmitted after a bounded timeout — drops test the
// retransmission path, not permanent loss (a permanently lost agent would
// make every election trivially fail, which tests catch as an unhalted
// run).
const (
	// WireDrop loses the frame on the wire; the bus retransmits it after
	// Arg+1 scheduler rounds.
	WireDrop WireKind = iota
	// WireDelay holds the frame for Arg+1 scheduler rounds before
	// delivery.
	WireDelay
	// WireDup delivers the frame twice.
	WireDup
	// WireReorder makes the frame overtake the receiver's queue (delivered
	// before earlier undelivered frames).
	WireReorder

	numWireKinds
)

// String names the kind.
func (k WireKind) String() string {
	switch k {
	case WireDrop:
		return "drop"
	case WireDelay:
		return "delay"
	case WireDup:
		return "dup"
	case WireReorder:
		return "reorder"
	default:
		return "unknown"
	}
}

// WireOp describes one agent-message send on the networked bus — the
// injection point coordinates. Index is the bus's global send counter,
// which the coordinator increments deterministically, so a recorded plan
// re-addresses the same sends on replay.
type WireOp struct {
	// Index is the global send counter at this send.
	Index int
	// Agent is the index of the agent riding the message.
	Agent int
	// From and To are the sending and receiving nodes.
	From, To int
}

// WireAction is the injector's decision for one send: at most one fault.
// The zero WireAction means deliver normally.
type WireAction struct {
	// Fault reports that Kind/Arg are meaningful.
	Fault bool
	// Kind is the fault to inject.
	Kind WireKind
	// Arg parameterizes the fault (extra hold rounds for drop/delay).
	Arg int
}

// WireEvent is one injected wire fault in a WirePlan.
type WireEvent struct {
	// Kind is what was injected.
	Kind WireKind `json:"kind"`
	// Index is the bus's global send counter at injection.
	Index int `json:"index"`
	// Agent is the index of the agent riding the faulted message.
	Agent int `json:"agent"`
	// From and To are the endpoints (manifest information).
	From int `json:"from"`
	// To is the receiving node.
	To int `json:"to"`
	// Arg is the hold length for drop/delay events; 0 otherwise.
	Arg int `json:"arg,omitempty"`
}

// String renders the event compactly, e.g. "drop send#4 a1 n2->n3".
func (ev WireEvent) String() string {
	s := fmt.Sprintf("%s send#%d a%d n%d->n%d", ev.Kind, ev.Index, ev.Agent, ev.From, ev.To)
	if ev.Kind == WireDrop || ev.Kind == WireDelay {
		s += fmt.Sprintf(" arg=%d", ev.Arg)
	}
	return s
}

// WirePlan is the recorded wire-fault decision log of one networked run,
// replayable exactly like a Plan: ReplayWire re-issues the events by send
// index against another run of the same schedule.
type WirePlan struct {
	// Events are the injected wire faults in injection order.
	Events []WireEvent `json:"events"`
}

// wireMagic versions the WirePlan encoding (distinct from planMagic).
const wireMagic = 0xFB

// Encode serializes the plan: a magic byte, the event count, then six
// uvarints per event.
func (p *WirePlan) Encode() []byte {
	buf := make([]byte, 0, 2+12*len(p.Events))
	buf = append(buf, wireMagic)
	buf = binary.AppendUvarint(buf, uint64(len(p.Events)))
	for _, ev := range p.Events {
		buf = binary.AppendUvarint(buf, uint64(ev.Kind))
		buf = binary.AppendUvarint(buf, uint64(ev.Index))
		buf = binary.AppendUvarint(buf, uint64(ev.Agent))
		buf = binary.AppendUvarint(buf, uint64(ev.From))
		buf = binary.AppendUvarint(buf, uint64(ev.To))
		buf = binary.AppendUvarint(buf, uint64(ev.Arg))
	}
	return buf
}

// EncodeString returns the base64 form of Encode, for JSON manifests.
func (p *WirePlan) EncodeString() string {
	return base64.StdEncoding.EncodeToString(p.Encode())
}

// Summary renders the plan as a short human-readable list.
func (p *WirePlan) Summary() string {
	if len(p.Events) == 0 {
		return "no wire faults injected"
	}
	parts := make([]string, len(p.Events))
	for i, ev := range p.Events {
		parts[i] = ev.String()
	}
	return strings.Join(parts, "; ")
}

// DecodeWirePlan parses an encoded wire plan, validating the magic byte,
// the event count, and every kind.
func DecodeWirePlan(data []byte) (*WirePlan, error) {
	if len(data) == 0 || data[0] != wireMagic {
		return nil, errors.New("faults: bad wire-plan header")
	}
	rest := data[1:]
	n, sz := binary.Uvarint(rest)
	if sz <= 0 || n > maxPlanEvents {
		return nil, errors.New("faults: bad wire-plan event count")
	}
	rest = rest[sz:]
	p := &WirePlan{Events: make([]WireEvent, 0, n)}
	for i := uint64(0); i < n; i++ {
		var vals [6]uint64
		for j := range vals {
			v, s := binary.Uvarint(rest)
			if s <= 0 {
				return nil, fmt.Errorf("faults: truncated wire plan at event %d", i)
			}
			vals[j] = v
			rest = rest[s:]
		}
		if vals[0] >= uint64(numWireKinds) {
			return nil, fmt.Errorf("faults: unknown wire-event kind %d", vals[0])
		}
		for _, v := range vals[1:] {
			if v > 1<<30 {
				return nil, fmt.Errorf("faults: implausible field in wire event %d", i)
			}
		}
		p.Events = append(p.Events, WireEvent{
			Kind:  WireKind(vals[0]),
			Index: int(vals[1]),
			Agent: int(vals[2]),
			From:  int(vals[3]),
			To:    int(vals[4]),
			Arg:   int(vals[5]),
		})
	}
	if len(rest) != 0 {
		return nil, errors.New("faults: trailing bytes after wire plan")
	}
	return p, nil
}

// DecodeWirePlanString parses the base64 form produced by EncodeString.
func DecodeWirePlanString(s string) (*WirePlan, error) {
	data, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("faults: bad wire-plan base64: %w", err)
	}
	return DecodeWirePlan(data)
}

// WireInjector decides, per message send, whether to fault the wire. Both
// the seeded strategies (NewWire) and the plan re-issuer (ReplayWire)
// implement it; either way Plan returns the decision log for manifests and
// replay.
type WireInjector interface {
	// Inject returns the decision for one send and records any fault into
	// the plan.
	Inject(op WireOp) WireAction
	// Plan returns the events injected so far.
	Plan() *WirePlan
}

// WireStrategies lists the built-in seeded wire-fault strategy names
// accepted by NewWire.
func WireStrategies() []string {
	return []string{"drop", "delay", "dup", "reorder", "mixed"}
}

// wireStrategy injects one fault kind (or a mix) with a fixed per-send
// probability, seeded and recorded.
type wireStrategy struct {
	kinds []WireKind
	rng   *rand.Rand
	plan  WirePlan
	// denom is the per-send fault chance denominator (1 in denom).
	denom int
}

// NewWire returns a seeded wire-fault strategy by name: "drop", "delay",
// "dup", "reorder" inject that single kind; "mixed" draws among all four.
// Decisions are deterministic per seed, consumed one rng draw per send,
// and recorded into the plan.
func NewWire(name string, seed int64) (WireInjector, error) {
	var kinds []WireKind
	switch name {
	case "drop":
		kinds = []WireKind{WireDrop}
	case "delay":
		kinds = []WireKind{WireDelay}
	case "dup":
		kinds = []WireKind{WireDup}
	case "reorder":
		kinds = []WireKind{WireReorder}
	case "mixed":
		kinds = []WireKind{WireDrop, WireDelay, WireDup, WireReorder}
	default:
		return nil, fmt.Errorf("faults: unknown wire strategy %q (have %s)",
			name, strings.Join(WireStrategies(), ", "))
	}
	return &wireStrategy{kinds: kinds, rng: lazyrand.New(seed), denom: 8}, nil
}

// Inject decides one send: a 1-in-8 chance of injecting the strategy's
// kind (uniform among kinds for "mixed").
func (w *wireStrategy) Inject(op WireOp) WireAction {
	// Exactly two draws per send keeps the stream aligned regardless of
	// the decision, so plans stay replayable against the same schedule.
	hit := w.rng.Intn(w.denom) == 0
	pick := w.rng.Intn(len(w.kinds) * 2)
	if !hit {
		return WireAction{}
	}
	kind := w.kinds[pick%len(w.kinds)]
	arg := 0
	if kind == WireDrop || kind == WireDelay {
		arg = pick / len(w.kinds) // 0 or 1 extra hold rounds
	}
	w.plan.Events = append(w.plan.Events, WireEvent{
		Kind: kind, Index: op.Index, Agent: op.Agent, From: op.From, To: op.To, Arg: arg,
	})
	return WireAction{Fault: true, Kind: kind, Arg: arg}
}

// Plan returns the events injected so far.
func (w *wireStrategy) Plan() *WirePlan {
	return &WirePlan{Events: append([]WireEvent(nil), w.plan.Events...)}
}

// wireReplay re-issues a recorded plan by send index.
type wireReplay struct {
	byIndex map[int]WireEvent
	plan    WirePlan
}

// ReplayWire returns an injector that re-issues the plan's events at the
// recorded send indexes. Replaying a recorded plan against the same
// (Config, Protocol, backend) reproduces the networked run frame for
// frame.
func ReplayWire(p *WirePlan) WireInjector {
	byIndex := make(map[int]WireEvent, len(p.Events))
	for _, ev := range p.Events {
		byIndex[ev.Index] = ev
	}
	return &wireReplay{byIndex: byIndex}
}

// Inject re-issues the recorded event for this send index, if any.
func (w *wireReplay) Inject(op WireOp) WireAction {
	ev, ok := w.byIndex[op.Index]
	if !ok {
		return WireAction{}
	}
	applied := ev
	applied.Agent, applied.From, applied.To = op.Agent, op.From, op.To
	w.plan.Events = append(w.plan.Events, applied)
	return WireAction{Fault: true, Kind: ev.Kind, Arg: ev.Arg}
}

// Plan returns the events re-issued so far.
func (w *wireReplay) Plan() *WirePlan {
	return &WirePlan{Events: append([]WireEvent(nil), w.plan.Events...)}
}
