package interp

import (
	"errors"

	"cachier/internal/parc"
)

// TreeLane runs the tree-walking reference interpreter as a lane, with the
// Resume/Kill/Err surface of LaneVM. It is how the reference is driven: the
// simulator attaches one per processor under Config.TreeWalk, and the oracle
// runs its sequential machine on them.
//
// The tree-walker recurses on the Go stack, so it cannot return to its
// caller in the middle of a statement the way the lane VM does. A TreeLane
// therefore runs it on a goroutine of its own and stands between it and its
// Machine: after every call it asks the yielder whether its node is still
// running, and if not it hands control back to Resume's caller and parks
// until it is resumed. Exactly one of that caller and its lanes is ever
// unparked, so the Machine stays single-owner.
type TreeLane struct {
	c    *Context
	mach Machine // the host's machine; the interpreter calls the lane instead
	y    interface{ LaneRunning(node int) bool }

	resume chan struct{} // Resume → lane: run again
	parked chan struct{} // lane → Resume: parked, or finished

	started, killed, done bool

	err   error
	crash any // a panic that is not the lane's own; Resume re-raises it
}

// errLaneKilled unwinds a killed lane's interpreter.
var errLaneKilled = errors.New("interp: lane killed")

// NewTreeLane prepares the context's program as a reference lane that parks
// after any Machine call once y.LaneRunning reports its node no longer
// running. The context is committed to the lane; do not also call Run.
func (c *Context) NewTreeLane(y interface{ LaneRunning(node int) bool }) *TreeLane {
	l := &TreeLane{c: c, mach: c.mach, y: y, resume: make(chan struct{}), parked: make(chan struct{})}
	c.mach = (*treeMachine)(l)
	return l
}

// Resume wakes the interpreter (starts it, the first time) and waits until it
// parks or its program ends. A panic in the interpreter or in the Machine
// that is not the lane's own unwinding is raised again here.
func (l *TreeLane) Resume() LaneStatus {
	switch {
	case l.done:
		return LaneDone
	case l.started:
		l.resume <- struct{}{}
	case l.killed: // never ran: nothing to unwind
		l.done = true
		return LaneDone
	default:
		l.started = true
		go l.interpret()
	}
	<-l.parked
	if l.crash != nil {
		panic(l.crash)
	}
	if l.done {
		return LaneDone
	}
	return LaneSuspended
}

func (l *TreeLane) interpret() {
	defer func() {
		if r := recover(); r != nil && r != errLaneKilled {
			l.crash = r
		}
		l.done = true
		l.parked <- struct{}{}
	}()
	l.err = l.c.runTree()
}

// Kill ends the lane without an error of its own. The interpreter unwinds
// at its next yield: at once when the lane is killed from inside one of its
// Machine calls, at the next Resume when it is parked or has not started.
func (l *TreeLane) Kill() { l.killed = true }

// Err returns the program's terminal error once Resume reported LaneDone
// (nil on clean completion, or after Kill).
func (l *TreeLane) Err() error { return l.err }

// yield follows every Machine call the interpreter makes.
func (l *TreeLane) yield() {
	if !l.killed && !l.y.LaneRunning(l.c.node) {
		l.parked <- struct{}{}
		<-l.resume
	}
	if l.killed {
		panic(errLaneKilled)
	}
}

// treeMachine is a TreeLane as its interpreter's Machine: every call goes to
// the host's machine, then the lane yields.
type treeMachine TreeLane

func (t *treeMachine) Access(node int, write bool, addr uint64, pc int) {
	t.mach.Access(node, write, addr, pc)
	(*TreeLane)(t).yield()
}

func (t *treeMachine) Directive(node int, kind parc.AnnKind, ranges []AddrRange, pc int) {
	t.mach.Directive(node, kind, ranges, pc)
	(*TreeLane)(t).yield()
}

func (t *treeMachine) Barrier(node int, pc int) {
	t.mach.Barrier(node, pc)
	(*TreeLane)(t).yield()
}

func (t *treeMachine) Lock(node int, id int64, pc int) {
	t.mach.Lock(node, id, pc)
	(*TreeLane)(t).yield()
}

func (t *treeMachine) Unlock(node int, id int64, pc int) {
	t.mach.Unlock(node, id, pc)
	(*TreeLane)(t).yield()
}

func (t *treeMachine) Work(node int, cycles uint64) {
	t.mach.Work(node, cycles)
	(*TreeLane)(t).yield()
}

func (t *treeMachine) Print(node int, text string) {
	t.mach.Print(node, text)
	(*TreeLane)(t).yield()
}
