// Package oracle executes a ParC program on a sequential reference machine
// and reports the final shared memory, print output, and write footprint.
//
// The oracle is the ground truth for differential testing: it shares the
// reference interpreter (the tree-walker, never the compiled bytecode the
// production engine runs) and the memory layout with the simulator but
// replaces the whole Dir1SW machine with the trivial one — every access hits the flat store
// directly, caches and directives do not exist, and scheduling is the
// simplest deterministic policy imaginable: processors run one at a time in
// node order, each to its next barrier (or completion), epoch by epoch.
// For a program that is element-level race-free within every epoch (at most
// one writer per shared element, cross-node reads only of data stable since
// an earlier epoch, multi-writer cells confined to lock-protected
// commutative integer updates), every schedule — including every simulator
// interleaving under any annotation placement — must produce exactly the
// memory this one does. Any divergence is a bug in the pipeline, not in the
// program.
package oracle

import (
	"errors"
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
	for i := 0; i < cfg.Nprocs; i++ {
		m.procs = append(m.procs, &proc{
			resume: make(chan bool),
			parked: make(chan parkMsg),
		})
	}
	for i := 0; i < cfg.Nprocs; i++ {
		ctx := interp.NewContext(prog, m.store, m, i, cfg.Nprocs)
		ctx.UseTreeWalker()
		go m.runProc(ctx, m.procs[i])
	}

	// Epoch loop: resume every still-active processor in node order; each
	// runs to its next barrier or to completion before the next one starts.
	active := make([]int, cfg.Nprocs)
	for i := range active {
		active[i] = i
	}
	barriers := 0
	for len(active) > 0 {
		var arrived []int
		for ai, id := range active {
			p := m.procs[id]
			p.resume <- true
			msg := <-p.parked
			if msg.err != nil {
				// Unwind the still-live goroutines: earlier procs that
				// arrived at the barrier this round, and later procs still
				// parked at the previous round's stop point. Procs that
				// already finished have exited and must not be signalled.
				for _, other := range arrived {
					m.procs[other].resume <- false
				}
				for _, other := range active[ai+1:] {
					m.procs[other].resume <- false
				}
				return nil, msg.err
			}
			if !msg.done {
				arrived = append(arrived, id)
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

var errAborted = errors.New("oracle: aborted")

type parkMsg struct {
	done bool
	err  error
}

type proc struct {
	resume chan bool // coordinator -> proc; false aborts
	parked chan parkMsg
}

// machine implements interp.Machine with no memory system at all. Exactly
// one processor goroutine runs at any time (the coordinator resumes one and
// blocks until it parks), so the shared fields need no locking.
type machine struct {
	procs   []*proc
	store   *interp.Store
	written map[uint64]bool
	outputs []string
}

func (m *machine) runProc(ctx *interp.Context, p *proc) {
	if !<-p.resume {
		return
	}
	err := m.runInterp(ctx)
	if errors.Is(err, errAborted) {
		return
	}
	p.parked <- parkMsg{done: true, err: err}
}

func (m *machine) runInterp(ctx *interp.Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok && errors.Is(e, errAborted) {
				err = e
				return
			}
			panic(r)
		}
	}()
	return ctx.Run()
}

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

// Barrier implements interp.Machine: park until the coordinator's next
// epoch round.
func (m *machine) Barrier(node int, pc int) {
	p := m.procs[node]
	p.parked <- parkMsg{}
	if !<-p.resume {
		panic(errAborted)
	}
}

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
