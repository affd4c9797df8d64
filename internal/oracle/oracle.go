// Package oracle executes a ParC program on a sequential reference machine
// and reports the final shared memory, print output, and write footprint.
//
// The oracle is the ground truth for differential testing: it shares the
// reference interpreter (the tree-walker, never the compiled bytecode the
// production engine runs, hosted as the interp.TreeLanes the simulator's
// reference engine drives too) and the memory layout with the simulator,
// but replaces the whole Dir1SW machine with the trivial one — every access
// hits the flat store directly, caches and directives do not exist, and
// scheduling is the simplest deterministic policy imaginable: processors
// run one at a time in node order, each to its next barrier (or
// completion), epoch by epoch.
// For a program that is element-level race-free within every epoch (at most
// one writer per shared element, cross-node reads only of data stable since
// an earlier epoch, multi-writer cells confined to lock-protected
// commutative integer updates), every schedule — including every simulator
// interleaving under any annotation placement — must produce exactly the
// memory this one does. Any divergence is a bug in the pipeline, not in the
// program.
package oracle

import (
	"fmt"

	"cachier/internal/interp"
	"cachier/internal/memory"
	"cachier/internal/parc"
)

// Config sizes the reference machine.
type Config struct {
	// Nprocs is the SPMD processor count (pid()/nprocs() values).
	Nprocs int
	// BlockSize must match the simulator's so memory.New assigns identical
	// region base addresses (layout aligns regions to blocks).
	BlockSize int
}

// Result is the reference execution's observable outcome.
type Result struct {
	Store  *interp.Store
	Layout *memory.Layout
	// Output holds print lines formatted exactly like the simulator's
	// ("node %d: text"), in oracle schedule order. Cross-machine comparisons
	// must treat output as a multiset: relative order between nodes is
	// schedule-dependent even for race-free programs.
	Output []string
	// Written marks every shared element address some node stored to.
	Written map[uint64]bool
	// Barriers counts completed global barrier episodes.
	Barriers int
}

// Run executes prog to completion on the reference machine.
func Run(prog *parc.Program, cfg Config) (*Result, error) {
	if cfg.Nprocs <= 0 {
		return nil, fmt.Errorf("oracle: need at least one processor")
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 32
	}
	layout, err := memory.New(prog, cfg.BlockSize)
	if err != nil {
		return nil, err
	}
	m := &machine{
		store:   interp.NewStoreFor(layout),
		written: make(map[uint64]bool),
	}
	lanes := make([]*interp.TreeLane, cfg.Nprocs)
	for i := range lanes {
		lanes[i] = interp.NewContext(prog, m.store, m, i, cfg.Nprocs).NewTreeLane(m)
	}
	// However the run ends, a lane still parked at a barrier unwinds.
	defer func() {
		for _, l := range lanes {
			l.Kill()
			l.Resume()
		}
	}()

	// Epoch loop: resume every still-active processor in node order; each
	// runs to its next barrier or to completion before the next one starts.
	active := make([]int, cfg.Nprocs)
	for i := range active {
		active[i] = i
	}
	barriers := 0
	for len(active) > 0 {
		var arrived []int
		for _, id := range active {
			m.atBarrier = false
			if lanes[id].Resume() == interp.LaneSuspended {
				arrived = append(arrived, id)
			} else if err := lanes[id].Err(); err != nil {
				return nil, err
			}
		}
		if len(arrived) > 0 {
			barriers++
		}
		active = arrived
	}

	return &Result{
		Store:    m.store,
		Layout:   layout,
		Output:   m.outputs,
		Written:  m.written,
		Barriers: barriers,
	}, nil
}

// machine implements interp.Machine with no memory system at all, and is
// its lanes' yielder. Exactly one lane runs at any time (Run resumes one and
// waits until it parks), so the fields need no locking.
type machine struct {
	store     *interp.Store
	written   map[uint64]bool
	outputs   []string
	atBarrier bool // the running lane has reached a barrier
}

// LaneRunning is the lanes' yielder: a lane runs until it reaches a barrier.
func (m *machine) LaneRunning(node int) bool { return !m.atBarrier }

// Access implements interp.Machine: loads and stores hit the flat store
// directly (the interpreter performs the store itself; the machine only
// observes), so the oracle just records the write footprint.
func (m *machine) Access(node int, write bool, addr uint64, pc int) {
	if write {
		m.written[addr] = true
	}
}

// Directive implements interp.Machine. CICO annotations are performance
// directives with no memory semantics, so the reference machine ignores
// them; this is precisely what makes the oracle a fair referee for
// annotated and unannotated variants alike.
func (m *machine) Directive(node int, kind parc.AnnKind, ranges []interp.AddrRange, pc int) {}

// Barrier implements interp.Machine: the lane parks until Run's next epoch
// round.
func (m *machine) Barrier(node int, pc int) { m.atBarrier = true }

// Lock and Unlock implement interp.Machine. Processors only yield at
// barriers, so a critical section always runs to completion before any
// other processor executes: mutual exclusion holds vacuously.
func (m *machine) Lock(node int, id int64, pc int)   {}
func (m *machine) Unlock(node int, id int64, pc int) {}

// Work implements interp.Machine; the oracle has no clock.
func (m *machine) Work(node int, cycles uint64) {}

// Print implements interp.Machine using the simulator's line format.
func (m *machine) Print(node int, text string) {
	m.outputs = append(m.outputs, fmt.Sprintf("node %d: %s", node, text))
}
