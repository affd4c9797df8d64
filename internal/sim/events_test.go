package sim

import (
	"errors"
	"testing"

	"cachier/internal/memory"
	"cachier/internal/parc"
	"cachier/internal/trace"
)

// sliceSource replays a fixed event list, then ends with err.
type sliceSource struct {
	events []Event
	err    error
}

func (s *sliceSource) Next(*memory.Layout) (*Event, error) {
	if len(s.events) == 0 {
		return nil, s.err
	}
	ev := &s.events[0]
	s.events = s.events[1:]
	return ev, nil
}

// TestReplay drives the event engine with hand-made streams (that an
// inferred stream replays to the trace of the program's own run is
// staticanno's and the conformance harness's business): two nodes store to
// one block under one lock on either side of a barrier, and the Result is
// the machine's — a trace with the cold miss and the invalidation miss of
// each epoch, the barrier, both clocks — with nothing an interpreter would
// have added.
func TestReplay(t *testing.T) {
	prog := parc.MustParse(`shared int v[4]; func main() { }`)
	layout, err := memory.New(prog, 32)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := layout.AddrOf("v", 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Nodes = 2
	cfg.Mode = ModeTrace
	stream := func() *sliceSource {
		return &sliceSource{events: []Event{
			{Op: EvWork, Cycles: 7},
			{Op: EvLock, Lock: 9, PC: 2},
			{Op: EvAccess, Write: true, Addr: addr, PC: 3},
			{Op: EvUnlock, Lock: 9, PC: 2},
			{Op: EvPrint, PC: 4},
			{Op: EvBarrier, PC: 5},
			{Op: EvAccess, Write: true, Addr: addr, PC: 6},
		}}
	}
	res, err := Replay(prog, cfg, []EventSource{stream(), stream()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != engineEvents || res.Store != nil || len(res.Output) != 0 {
		t.Errorf("engine %q, store %v, output %q: want %q and no interpreter state", res.Engine, res.Store, res.Output, engineEvents)
	}
	if res.Barriers != 1 || res.NodeCycles[0] == 0 || res.NodeCycles[1] == 0 {
		t.Errorf("barriers %d, node cycles %v", res.Barriers, res.NodeCycles)
	}
	if len(res.Trace.Epochs) != 2 {
		t.Fatalf("trace has %d epochs, want 2", len(res.Trace.Epochs))
	}
	for i, ep := range res.Trace.Epochs {
		if len(ep.Misses) != 2 {
			t.Fatalf("epoch %d: misses %+v, want one write miss per node", i, ep.Misses)
		}
		for _, miss := range ep.Misses {
			if miss.Kind != trace.WriteMiss || miss.Addr != addr {
				t.Errorf("epoch %d: miss %+v, want a write miss of %d", i, miss, addr)
			}
		}
	}

	if _, err := Replay(prog, cfg, []EventSource{stream()}); err == nil {
		t.Error("one source for two nodes was accepted")
	}
	boom := errors.New("boom")
	if _, err := Replay(prog, cfg, []EventSource{stream(), &sliceSource{err: boom}}); !errors.Is(err, boom) {
		t.Errorf("a failing source: Replay error = %v, want it surfaced", err)
	}
}
