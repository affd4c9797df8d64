package staticanno

// The coherent replay. An isolated per-node cache replay gets the misses on
// privately-owned blocks right but is blind to cross-node interference on
// falsely-shared blocks — a partition boundary block that ping-pongs
// between two writers produces extra write misses, flips a write fault into
// a write miss (the other node's invalidation lands between the read and
// the write), and turns silent Exclusive hits into write faults (a remote
// read downgraded the copy). Those events are real: the paper's
// trace-driven Cachier sees them and places pinned annotations at the
// boundary. So the static pipeline hands all nodes' inferred streams to the
// simulator itself (sim.Replay): a trace-mode machine whose processors are
// event lanes, under the simulator's own scheduler, protocol and costs.
// What is this package's own is only where the events come from.
//
// Local compute is in the streams too: the inference mode mirrors the VM's
// per-statement work accounting, flushing pending units to the stream at
// the VM's own 512-cycle boundary, so the machine advances each clock by
// the same amounts between the same memory events, and an exact inference
// replays the simulated schedule cycle for cycle.

import (
	"fmt"

	"cachier/internal/memory"
	"cachier/internal/parc"
	"cachier/internal/sim"
	"cachier/internal/vet"
)

// rProc is one node's sim.EventSource: a pull cursor over its inferred
// epochs. The next event is epochs[ep].Events[ev], after the element
// addresses still owed by the access the cursor last read.
type rProc struct {
	epochs []vet.InferEpoch
	ep, ev int
	addrs  []uint64
	acc    *vet.InferAccess // the access addrs belongs to
}

// Next pulls the processor's next event: the remaining element addresses of
// a widened access one by one (a widened access reaches the scheduler as
// one event per element), then the epoch's events in order, then the
// barrier that closes the epoch. ok is false at the end of the program.
func (p *rProc) Next(layout *memory.Layout) (ev sim.Event, ok bool, err error) {
	for {
		if len(p.addrs) > 0 {
			addr := p.addrs[0]
			p.addrs = p.addrs[1:]
			return sim.Event{Op: sim.EvAccess, Write: p.acc.Write, Addr: addr, PC: p.acc.Stmt}, true, nil
		}
		if p.ep >= len(p.epochs) {
			return sim.Event{}, false, nil
		}
		ep := &p.epochs[p.ep]
		if p.ev >= len(ep.Events) {
			p.ep++
			p.ev = 0
			if ep.BarrierID >= 0 {
				return sim.Event{Op: sim.EvBarrier, PC: ep.BarrierID}, true, nil
			}
			continue
		}
		e := &ep.Events[p.ev]
		p.ev++
		switch e.Op {
		case vet.OpAccess:
			region := layout.Region(e.Access.Var)
			if region == nil {
				return sim.Event{}, false, fmt.Errorf("staticanno: access to unknown shared variable %q", e.Access.Var)
			}
			if p.addrs, err = elementAddrs(region, e.Access.Dims); err != nil {
				return sim.Event{}, false, err
			}
			p.acc = &e.Access
		case vet.OpLock:
			return sim.Event{Op: sim.EvLock, Lock: e.Lock, PC: e.Stmt}, true, nil
		case vet.OpUnlock:
			return sim.Event{Op: sim.EvUnlock, Lock: e.Lock, PC: e.Stmt}, true, nil
		case vet.OpPrint:
			return sim.Event{Op: sim.EvPrint, PC: e.Stmt}, true, nil
		case vet.OpWork:
			return sim.Event{Op: sim.EvWork, Cycles: e.Work, PC: e.Stmt}, true, nil
		}
	}
}

// replay runs every node's inferred event stream to completion on the
// paper's machine with cfg's geometry, in trace mode; the run's trace is
// the synthesized one.
func replay(prog *parc.Program, cfg Config, sum *vet.Summary) (*sim.Result, error) {
	mc := sim.DefaultConfig()
	mc.Nodes, mc.CacheSize, mc.Assoc, mc.BlockSize = cfg.Nodes, cfg.CacheSize, cfg.Assoc, cfg.BlockSize
	mc.Mode = sim.ModeTrace
	procs := make([]rProc, cfg.Nodes)
	sources := make([]sim.EventSource, cfg.Nodes)
	for i := range procs {
		procs[i].epochs = sum.Nodes[i].Epochs
		sources[i] = &procs[i]
	}
	return sim.Replay(prog, mc, sources)
}
