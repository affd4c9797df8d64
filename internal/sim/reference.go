package sim

import (
	"errors"

	"cachier/internal/interp"
	"cachier/internal/parc"
)

// The reference engine's lane host. The tree-walking interpreter recurses
// on the Go stack, so it cannot return to the scheduler loop in the middle
// of a statement the way a compiled lane does. Each reference lane
// therefore runs its interpreter on a goroutine of its own and stands in
// for the Machine that interpreter calls: after every call it asks the
// scheduler whether its processor is still the running one, and if not it
// hands control back and parks until it is resumed. Exactly one of the
// scheduler loop and the lanes is ever unparked, so the machine stays
// single-owner. These are the only channels in the simulator.
type refLane struct {
	m    *Machine
	node int

	resume chan struct{} // scheduler → lane: run again
	parked chan struct{} // lane → scheduler: parked, or finished

	started, killed, done bool

	err   error
	crash any // a panic that is not ours; Resume re-raises it in the scheduler
}

// errLaneKilled unwinds a killed lane's interpreter.
var errLaneKilled = errors.New("sim: lane killed")

// referenceLanes attaches the reference lanes: every processor's program on
// the tree-walker. They never ask for a lane view, so the reference is the
// side of the differential on which every event is a Machine call.
func (m *Machine) referenceLanes() {
	for i := range m.procs {
		l := &refLane{m: m, node: i, resume: make(chan struct{}), parked: make(chan struct{})}
		m.ctxs[i] = m.newContext(i, l)
		m.ctxs[i].UseTreeWalker()
		m.lanes[i] = l
	}
}

// Resume implements lane: wake the interpreter (start it, the first time)
// and wait until it parks or its program ends.
func (l *refLane) Resume() interp.LaneStatus {
	switch {
	case l.done:
		return interp.LaneDone
	case l.started:
		l.resume <- struct{}{}
	case l.killed: // never ran: nothing to unwind
		l.done = true
		return interp.LaneDone
	default:
		l.started = true
		go l.interpret()
	}
	<-l.parked
	if l.crash != nil {
		panic(l.crash)
	}
	if l.done {
		return interp.LaneDone
	}
	return interp.LaneSuspended
}

func (l *refLane) interpret() {
	defer func() {
		if r := recover(); r != nil && r != errLaneKilled {
			l.crash = r
		}
		l.done = true
		l.parked <- struct{}{}
	}()
	l.err = l.m.ctxs[l.node].Run()
}

// Kill implements lane. The interpreter unwinds at its next yield: at once
// when the lane killed itself from inside a Machine call, at the next
// Resume when the scheduler kills a parked lane.
func (l *refLane) Kill() { l.killed = true }

// Err implements lane.
func (l *refLane) Err() error { return l.err }

// yield follows every Machine call the interpreter makes.
func (l *refLane) yield() {
	if !l.killed && !l.m.LaneRunning(l.node) {
		l.parked <- struct{}{}
		<-l.resume
	}
	if l.killed {
		panic(errLaneKilled)
	}
}

func (l *refLane) Access(node int, write bool, addr uint64, pc int) {
	l.m.Access(node, write, addr, pc)
	l.yield()
}

func (l *refLane) Directive(node int, kind parc.AnnKind, ranges []interp.AddrRange, pc int) {
	l.m.Directive(node, kind, ranges, pc)
	l.yield()
}

func (l *refLane) Barrier(node int, pc int) {
	l.m.Barrier(node, pc)
	l.yield()
}

func (l *refLane) Lock(node int, id int64, pc int) {
	l.m.Lock(node, id, pc)
	l.yield()
}

func (l *refLane) Unlock(node int, id int64, pc int) {
	l.m.Unlock(node, id, pc)
	l.yield()
}

func (l *refLane) Work(node int, cycles uint64) {
	l.m.Work(node, cycles)
	l.yield()
}

func (l *refLane) Print(node int, text string) {
	l.m.Print(node, text)
	l.yield()
}
