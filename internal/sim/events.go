package sim

import (
	"fmt"

	"cachier/internal/interp"
	"cachier/internal/memory"
	"cachier/internal/parc"
)

// The event engine: the scheduler's third lane host. A compiled lane and a
// reference lane execute ParC and call the Machine as the program reaches
// its memory-system events; an event lane is handed those events already
// made — by the static annotator, which infers each node's stream from the
// AST (internal/staticanno) — and only replays them. Everything a replay
// must agree with a simulation on (the quantum rule, barrier release, lock
// handoff, protocol and synchronization costs, the trace) is the Machine's
// own code, reached through the same entry points.

// EventOp is the kind of a replayed event.
type EventOp uint8

// The scheduler-visible events of a ParC program.
const (
	EvAccess  EventOp = iota // shared load or store of Addr
	EvLock                   // lock(Lock)
	EvUnlock                 // unlock(Lock)
	EvPrint                  // costs nothing; it is only a context-switch point
	EvWork                   // Cycles of local computation
	EvBarrier                // global barrier
)

// Event is one Machine call of a replayed processor.
type Event struct {
	Op     EventOp
	Write  bool   // EvAccess: store rather than load
	Addr   uint64 // EvAccess: byte address
	PC     int    // statement ID, as the interpreter would report it
	Lock   int64  // EvLock, EvUnlock
	Cycles uint64 // EvWork
}

// EventSource is one processor's program as a stream of events in program
// order. Next returns nil once the program has ended; an error faults the
// processor like a runtime error of an interpreted one. The event is the
// source's own, read before the next call, so a source may rewrite one Event
// in place. The layout is the machine's, for sources that hold variables
// rather than addresses.
type EventSource interface {
	Next(layout *memory.Layout) (*Event, error)
}

// Replay simulates the machine cfg describes with every processor driven by
// its event source instead of an interpreter: prog supplies only the shared
// memory layout, and the Result carries no Store or Output.
func Replay(prog *parc.Program, cfg Config, sources []EventSource) (*Result, error) {
	if len(sources) != cfg.Nodes {
		return nil, fmt.Errorf("sim: %d event sources for %d nodes", len(sources), cfg.Nodes)
	}
	m, err := newMachine(prog, cfg)
	if err != nil {
		return nil, err
	}
	for i, src := range sources {
		m.lanes[i] = &eventLane{m: m, node: i, src: src}
	}
	return m.finish(engineEvents)
}

type eventLane struct {
	m    *Machine
	node int
	src  EventSource
	done bool
	err  error
}

// Resume implements lane: make the Machine calls of successive events
// until one of them schedules another processor.
func (l *eventLane) Resume() interp.LaneStatus {
	m := l.m
	for !l.done && m.LaneRunning(l.node) {
		ev, err := l.src.Next(m.layout)
		if err != nil || ev == nil {
			l.err, l.done = err, true
			break
		}
		switch ev.Op {
		case EvAccess:
			m.Access(l.node, ev.Write, ev.Addr, ev.PC)
		case EvLock:
			m.Lock(l.node, ev.Lock, ev.PC)
		case EvUnlock:
			m.Unlock(l.node, ev.Lock, ev.PC)
		case EvPrint:
			m.yield(m.procs[l.node])
		case EvWork:
			m.Work(l.node, ev.Cycles)
		case EvBarrier:
			m.Barrier(l.node, ev.PC)
		}
	}
	if l.done {
		return interp.LaneDone
	}
	return interp.LaneSuspended
}

// Kill implements lane.
func (l *eventLane) Kill() { l.done = true }

// Err implements lane.
func (l *eventLane) Err() error { return l.err }
