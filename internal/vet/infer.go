// Trace-free inference: the same abstract interpreter that backs the race
// detector, run in a mode that mirrors the bytecode VM instead of
// over-approximating it. Conditions short-circuit, while loops and large
// for loops are enumerated concretely, and every access records the ID of
// its enclosing statement — the "pc" a simulation trace would carry. The
// result keeps each node's recorded event stream as it is, and a Cursor
// reads it as the scheduler-visible steps internal/staticanno replays on the
// simulator's machine to synthesize the miss trace Cachier's placement
// pipeline normally gets from a simulation.
//
// Where the program is not statically enumerable (data-dependent guards,
// input-dependent subscripts, call-depth or fuel limits) the summary
// degrades gracefully: the affected accesses widen to strided intervals,
// Exact turns false, and Notes records why.

package vet

import (
	"fmt"

	"cachier/internal/parc"
)

// InferOptions configures a trace-free inference run.
type InferOptions struct {
	// Nprocs is the number of SPMD nodes to model. Defaults to 4.
	Nprocs int
}

// Inference bounds: inferEnumLimit caps concrete enumeration per loop (trip
// count for for loops, iterations for while loops), and inferFuel the total
// abstract-interpretation work per node. Past either the summary widens.
const (
	inferEnumLimit = 65536
	inferFuel      = 8 << 20
)

// StepOp tags a Step. Besides shared accesses a node's stream keeps the
// other scheduler-visible operations — lock, unlock, print, local-work
// reports, barriers — because each is a context-switch point in the
// simulator and a faithful replay of its schedule must switch at the same
// places with the same clocks.
type StepOp uint8

const (
	OpAccess StepOp = iota
	OpLock
	OpUnlock
	OpPrint
	OpWork
	OpBarrier
)

// Step is one scheduler-visible step of a node's inferred execution. A
// shared access is one step per element it may touch: an exact access is
// one step, a widened one a step per element of its bounds-clamped
// footprint.
type Step struct {
	Op StepOp
	// Stmt is the statement ID a trace would carry: the access's enclosing
	// statement, the barrier, lock, unlock or print statement, or the
	// statement whose work is reported.
	Stmt  int
	Write bool             // OpAccess: a store
	Decl  *parc.SharedDecl // OpAccess: the shared variable
	// Index is the element's subscripts (OpAccess; empty for a scalar). It
	// is the cursor's own odometer, valid until the next call to Next.
	Index []int
	Lock  int64  // OpLock, OpUnlock: the lock id
	Work  uint64 // OpWork: local cycles reported to the machine
}

// Summary is the result of trace-free inference over a whole program: every
// node's event stream as the abstract interpreter recorded it, read one step
// at a time through a Cursor.
type Summary struct {
	Nprocs int
	// Exact reports that every branch, loop bound, lock id, and subscript
	// folded to per-node constants: the streams are the VM's, not an
	// over-approximation of them.
	Exact bool
	Notes []string     // first few reasons Exact is false
	nodes []nodeStream // nil once released
}

// nodeStream is one node's recorded events, in their pooled storage, and
// the statement IDs of the barriers it crosses, in order.
type nodeStream struct {
	events   []event
	barriers []int32
	buf      *streamBuf
}

// Summarize runs the abstract interpreter in inference mode over a checked
// program and keeps each node's event stream. It never mutates the program
// and adds no findings to any report; the regular Analyze entry point is
// unaffected by inference mode. Every access's element sets are checked
// against its array's bounds here, so a Cursor cannot fail. Release hands
// the streams' storage back.
func Summarize(prog *parc.Program, opts InferOptions) (*Summary, error) {
	if opts.Nprocs <= 0 {
		opts.Nprocs = 4
	}
	main := prog.FuncMap["main"]
	if main == nil {
		return nil, fmt.Errorf("vet: program has no main function")
	}
	v := newVetter(prog, Options{Nprocs: opts.Nprocs})
	sum := &Summary{Nprocs: opts.Nprocs, Exact: true, nodes: make([]nodeStream, 0, opts.Nprocs)}
	var prev *nodeRun
	for p := 0; p < opts.Nprocs; p++ {
		r := newNodeRun(v, p, prev)
		prev = r
		r.fuel = inferFuel
		r.infer = &inferRun{exact: true}
		r.run(main)
		if r.outOfGas {
			r.inexact(parc.Pos{}, "analysis budget exhausted")
		}
		ns := nodeStream{events: r.events, buf: r.streamBuf}
		if p > 0 { // the node before's barriers size this node's
			ns.barriers = make([]int32, 0, len(sum.nodes[p-1].barriers))
		}
		for i := range r.events {
			ev := &r.events[i]
			switch {
			case ev.kind == evBarrier:
				ns.barriers = append(ns.barriers, ev.stmtID)
			case ev.kind == evAccess && ev.decl != nil:
				if ev.variant {
					r.inexact(ev.position(), "subscript of %s does not fold to one element", ev.decl.Name)
				}
				if err := checkElements(ev); err != nil {
					return nil, err
				}
			}
		}
		sum.nodes = append(sum.nodes, ns)
		if !r.infer.exact {
			sum.Exact = false
			for _, n := range r.infer.notes {
				if len(sum.Notes) < 16 {
					sum.Notes = append(sum.Notes, n)
				}
			}
		}
	}
	return sum, nil
}

// checkElements holds one access's element sets to its array's shape: each
// set bounded and no larger than its dimension, one set per dimension, every
// element in bounds. The interpreter clamps subscripts to the array bounds,
// so a failure means the summary and the declaration disagree. An empty set
// touches no element and is never walked.
func checkElements(ev *event) error {
	decl, dims := ev.decl, ev.dims
	for d, s := range dims {
		if s.empty() {
			return nil
		}
		limit := int64(1)
		if d < len(decl.DimSizes) {
			limit = int64(decl.DimSizes[d])
		}
		if s.lo <= negInf || s.hi >= posInf || (s.hi-s.lo)/max(s.stride, 1)+1 > limit {
			return fmt.Errorf("staticanno: subscript set {Lo:%d Hi:%d Stride:%d} of %s not enumerable",
				s.lo, s.hi, s.stride, decl.Name)
		}
	}
	if len(dims) != len(decl.DimSizes) {
		return fmt.Errorf("memory: %s has rank %d, got %d indices", decl.Name, len(decl.DimSizes), len(dims))
	}
	// Report the first element out of bounds in row-major order: the first
	// element itself if a lower bound is out, else the first element past
	// the bound of the last dimension that has one.
	bad, at := -1, int64(0)
	for d, s := range dims {
		if size := int64(decl.DimSizes[d]); s.lo < 0 || s.lo >= size {
			bad, at = d, s.lo
			break
		}
	}
	for d := len(dims) - 1; bad < 0 && d >= 0; d-- {
		s, size := dims[d], int64(decl.DimSizes[d])
		step := max(s.stride, 1)
		if first := s.lo + (size-s.lo+step-1)/step*step; first <= s.hi {
			bad, at = d, first
		}
	}
	if bad >= 0 {
		return fmt.Errorf("memory: index %d out of range [0,%d) in dimension %d of %s",
			at, decl.DimSizes[bad], bad, decl.Name)
	}
	return nil
}

// Release hands the summary's streams back for a later pass to reuse. Every
// Cursor on s must be done: afterwards Cursor and Next panic rather than
// read another pass's events. A second Release does nothing.
func (s *Summary) Release() {
	for _, ns := range s.nodes {
		ns.buf.release()
	}
	s.nodes = nil
}

// Cursor reads one node's stream step by step. Its odometer walks a shared
// access's elements row-major ascending, last subscript fastest, so a
// widened access costs no list of its elements.
type Cursor struct {
	sum    *Summary
	events []event
	next   int    // the next event to read
	acc    *event // the access the odometer is walking; nil between accesses
	ix     []int  // the odometer: acc's current element
	step   Step   // the last step returned: an access's is every element's, its Index being ix
}

// Cursor returns a cursor at the start of node's stream.
func (s *Summary) Cursor(node int) Cursor {
	return Cursor{sum: s, events: s.nodes[node].events}
}

// Next returns the node's next step, or nil at the end of its stream. The
// step is the cursor's own, valid until the next call.
func (c *Cursor) Next() *Step {
	if c.sum.nodes == nil {
		panic("vet: Cursor read after its Summary's Release")
	}
	if c.acc != nil && c.advance() {
		return &c.step
	}
	c.acc = nil
	for c.next < len(c.events) {
		ev := &c.events[c.next]
		c.next++
		switch ev.kind {
		case evAccess:
			if ev.decl != nil && c.start(ev) {
				return &c.step
			}
			continue
		case evBarrier:
			c.step = Step{Op: OpBarrier, Stmt: int(ev.stmtID)}
		case evLock:
			c.step = Step{Op: OpLock, Lock: ev.lockID, Stmt: int(ev.stmtID)}
		case evUnlock:
			c.step = Step{Op: OpUnlock, Lock: ev.lockID, Stmt: int(ev.stmtID)}
		case evPrint:
			c.step = Step{Op: OpPrint, Stmt: int(ev.stmtID)}
		case evWork:
			c.step = Step{Op: OpWork, Work: ev.work, Stmt: int(ev.encStmt)}
		default:
			continue
		}
		return &c.step
	}
	return nil
}

// start sets the odometer to ev's first element; false if ev touches none.
func (c *Cursor) start(ev *event) bool {
	c.ix = c.ix[:0]
	for _, s := range ev.dims {
		if s.empty() {
			return false
		}
		c.ix = append(c.ix, int(s.lo))
	}
	c.acc = ev
	c.step = Step{Op: OpAccess, Stmt: int(ev.encStmt), Write: ev.write, Decl: ev.decl, Index: c.ix}
	return true
}

// advance turns the odometer to acc's next element; false once every
// element has been read.
func (c *Cursor) advance() bool {
	for d := len(c.ix) - 1; d >= 0; d-- {
		s := c.acc.dims[d]
		if v := int64(c.ix[d]) + max(s.stride, 1); v <= s.hi {
			c.ix[d] = int(v)
			return true
		}
		c.ix[d] = int(s.lo)
	}
	return false
}

// CheckBarrierStructure verifies every node inferred the same sequence of
// barrier statement IDs — the static analogue of the simulator's barrier
// alignment. A mismatch means the nodes' epochs cannot be paired and no
// trace can be synthesized.
func (s *Summary) CheckBarrierStructure() error {
	if len(s.nodes) == 0 {
		return fmt.Errorf("vet: summary has no nodes")
	}
	first := s.nodes[0].barriers
	for node := 1; node < len(s.nodes); node++ {
		ids := s.nodes[node].barriers
		if len(ids) != len(first) {
			return fmt.Errorf("vet: node 0 infers %d epoch(s) but node %d infers %d; barrier arrival is node-dependent",
				len(first)+1, node, len(ids)+1)
		}
		for i, id := range ids {
			if id != first[i] {
				return fmt.Errorf("vet: epoch %d ends at barrier %d on node 0 but at barrier %d on node %d",
					i, first[i], id, node)
			}
		}
	}
	return nil
}
