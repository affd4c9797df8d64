package interp

import "cachier/internal/parc"

// AddrRange is an inclusive range of element byte addresses with
// ElemSize stride; CICO directives over array slices produce one range per
// contiguous run.
type AddrRange struct {
	Lo, Hi uint64
}

// Machine is the interpreter's view of the simulated machine. The simulator
// implements it for timing and protocol modelling, and the oracle package
// implements it a second time as a pure observer (directives become no-ops),
// which is what lets the conformance harness run the same interpreter under
// both and compare results. A call may leave another processor scheduled:
// the lane VM then returns to its caller and is resumed later (LaneYielder),
// while the tree-walker can only be made to wait inside the call (TreeLane
// parks it there). All methods are invoked with the processor's accumulated
// local work already flushed.
//
// A Machine is owned by a single simulation run: implementations are not
// required to be safe for use by goroutines outside that run, and callers
// must not share one Machine between concurrent simulations.
type Machine interface {
	// Access reports a shared-data reference (one element) by node at the
	// given statement ID.
	Access(node int, write bool, addr uint64, pc int)

	// Directive reports an explicit CICO annotation execution. The ranges
	// slice is only valid for the duration of the call (the VM reuses a
	// per-context scratch buffer); implementations that retain it must
	// copy.
	Directive(node int, kind parc.AnnKind, ranges []AddrRange, pc int)

	// Barrier blocks the node until all nodes arrive.
	Barrier(node int, pc int)

	// Lock acquires and Unlock releases a numbered mutex.
	Lock(node int, id int64, pc int)
	Unlock(node int, id int64, pc int)

	// Work charges local computation cycles.
	Work(node int, cycles uint64)

	// Print delivers debug output.
	Print(node int, text string)
}

// The local-work cost model every executor of ParC shares, vet's inference
// mode included. WorkFlushLimit bounds how much local work accumulates
// before being reported, so that compute-only stretches still advance the
// node's clock and yield to the scheduler. CallCharge is the work a user
// function call charges at its call site; it is added whole, so a call can
// push the pending amount past WorkFlushLimit and flush all of it at once.
const (
	WorkFlushLimit = 512
	CallCharge     = 2
)
