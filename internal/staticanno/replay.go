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
	"cachier/internal/memory"
	"cachier/internal/parc"
	"cachier/internal/sim"
	"cachier/internal/vet"
)

// rProc is one node's sim.EventSource: an adapter from the node's inferred
// steps to machine events, a shared access's element turned into its
// address in the machine's layout.
type rProc struct{ cur vet.Cursor }

// Next pulls the processor's next event. ok is false at the end of the
// program.
func (p *rProc) Next(layout *memory.Layout) (sim.Event, bool, error) {
	s := p.cur.Next()
	if s == nil {
		return sim.Event{}, false, nil
	}
	switch s.Op {
	case vet.OpAccess:
		addr, err := layout.Regions[s.Decl.Index].AddrOf(s.Index...)
		if err != nil {
			return sim.Event{}, false, err
		}
		return sim.Event{Op: sim.EvAccess, Write: s.Write, Addr: addr, PC: s.Stmt}, true, nil
	case vet.OpLock:
		return sim.Event{Op: sim.EvLock, Lock: s.Lock, PC: s.Stmt}, true, nil
	case vet.OpUnlock:
		return sim.Event{Op: sim.EvUnlock, Lock: s.Lock, PC: s.Stmt}, true, nil
	case vet.OpPrint:
		return sim.Event{Op: sim.EvPrint, PC: s.Stmt}, true, nil
	case vet.OpWork:
		return sim.Event{Op: sim.EvWork, Cycles: s.Work, PC: s.Stmt}, true, nil
	}
	return sim.Event{Op: sim.EvBarrier, PC: s.Stmt}, true, nil
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
		procs[i].cur = sum.Cursor(i)
		sources[i] = &procs[i]
	}
	return sim.Replay(prog, mc, sources)
}
