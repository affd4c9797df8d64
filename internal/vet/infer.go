// Trace-free inference: the same abstract interpreter that backs the race
// detector, run in a mode that mirrors the bytecode VM instead of
// over-approximating it. Conditions short-circuit, while loops and large
// for loops are enumerated concretely, and every access records the ID of
// its enclosing statement — the "pc" a simulation trace would carry. The
// result is a per-node, per-epoch access summary precise enough for
// internal/staticanno to replay against a cache model and synthesize the
// miss trace Cachier's placement pipeline normally gets from a simulation.
//
// Where the program is not statically enumerable (data-dependent guards,
// input-dependent subscripts, call-depth or fuel limits) the summary
// degrades gracefully: the affected accesses widen to strided intervals,
// Exact turns false, and Notes records why.

package vet

import (
	"fmt"

	"cachier/internal/analysis"
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

// IndexSet is the set of elements one array subscript may take: the
// integers Lo, Lo+Stride, ..., Hi. Stride 0 means the single element Lo;
// an exact inference produces only single-element sets.
type IndexSet struct {
	Lo, Hi, Stride int64
}

// Empty reports whether the set contains no elements.
func (s IndexSet) Empty() bool { return s.Lo > s.Hi }

// Const returns the single element of a singleton set.
func (s IndexSet) Const() (int64, bool) {
	if !s.Empty() && s.Lo == s.Hi {
		return s.Lo, true
	}
	return 0, false
}

// Enumerate returns the elements in ascending order, or ok=false if the
// set is unbounded or larger than limit.
func (s IndexSet) Enumerate(limit int) ([]int64, bool) {
	if s.Empty() {
		return nil, true
	}
	if s.Lo <= negInf || s.Hi >= posInf {
		return nil, false
	}
	step := s.Stride
	if step <= 0 {
		step = 1
	}
	n := (s.Hi-s.Lo)/step + 1
	if n > int64(limit) {
		return nil, false
	}
	out := make([]int64, 0, n)
	for v := s.Lo; v <= s.Hi; v += step {
		out = append(out, v)
	}
	return out, true
}

// InferAccess is one shared-memory access in a node's inferred stream, in
// program order within its epoch.
type InferAccess struct {
	Var     string // shared variable name
	Write   bool
	Stmt    int        // enclosing statement's ID (the pc a trace would carry)
	Dims    []IndexSet // per-dimension element sets, clamped to array bounds
	Variant bool       // some subscript did not fold to a single element
}

// InferOp tags an entry of a node's inferred event stream. Besides shared
// accesses the stream keeps the other scheduler-visible operations — lock,
// unlock, print, local-work reports — because each is a context-switch
// point in the simulator and a faithful replay of its schedule must switch
// at the same places with the same clocks.
type InferOp int

const (
	OpAccess InferOp = iota
	OpLock
	OpUnlock
	OpPrint
	OpWork
)

// InferEvent is one scheduler-visible event in a node's stream, in program
// order within its epoch.
type InferEvent struct {
	Op     InferOp
	Access InferAccess // valid when Op == OpAccess
	Lock   int64       // lock id, when Op is OpLock or OpUnlock
	Work   uint64      // local cycles reported to the machine, when Op == OpWork
	Stmt   int         // statement ID (the access's enclosing statement for OpAccess)
}

// InferEpoch is one barrier-delimited interval of a node's stream.
type InferEpoch struct {
	Index     int
	BarrierID int // statement ID of the terminating barrier; -1 at program end
	Events    []InferEvent
}

// NodeSummary is one node's inferred execution.
type NodeSummary struct {
	Node   int
	Epochs []InferEpoch
}

// Summary is the result of trace-free inference over a whole program.
type Summary struct {
	Nprocs int
	// Exact reports that every branch, loop bound, lock id, and subscript
	// folded to per-node constants: the access streams are the VM's, not an
	// over-approximation of them.
	Exact bool
	Notes []string // first few reasons Exact is false
	Nodes []NodeSummary
}

// Summarize runs the abstract interpreter in inference mode over a checked
// program and returns each node's barrier-delimited access stream. It never
// mutates the program and adds no findings to any report; the regular
// Analyze entry point is unaffected by inference mode.
func Summarize(prog *parc.Program, opts InferOptions) (*Summary, error) {
	if opts.Nprocs <= 0 {
		opts.Nprocs = 4
	}
	main := prog.FuncMap["main"]
	if main == nil {
		return nil, fmt.Errorf("vet: program has no main function")
	}
	v := &vetter{
		prog: prog,
		info: analysis.Analyze(prog),
		opts: Options{Nprocs: opts.Nprocs},
		seen: make(map[string]bool),
	}
	sum := &Summary{Nprocs: opts.Nprocs, Exact: true, Nodes: make([]NodeSummary, 0, opts.Nprocs)}
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
		var like []InferEpoch // the node before's epochs size this node's
		if p > 0 {
			like = sum.Nodes[p-1].Epochs
		}
		newEpoch := func(i int) InferEpoch {
			ep := InferEpoch{Index: i, BarrierID: -1}
			if i < len(like) {
				ep.Events = make([]InferEvent, 0, len(like[i].Events))
			}
			return ep
		}
		ns := NodeSummary{Node: p, Epochs: make([]InferEpoch, 0, len(like))}
		cur := newEpoch(0)
		for i := range r.events {
			ev := &r.events[i]
			switch ev.kind {
			case evBarrier:
				cur.BarrierID = int(ev.stmtID)
				ns.Epochs = append(ns.Epochs, cur)
				cur = newEpoch(len(ns.Epochs))
			case evAccess:
				if ev.decl == nil {
					continue
				}
				if ev.variant {
					r.inexact(ev.position(), "subscript of %s does not fold to one element", ev.decl.Name)
				}
				acc := InferAccess{
					Var:     ev.decl.Name,
					Write:   ev.write,
					Stmt:    int(ev.encStmt),
					Variant: ev.variant,
				}
				for _, d := range ev.dims {
					acc.Dims = append(acc.Dims, IndexSet{Lo: d.lo, Hi: d.hi, Stride: d.stride})
				}
				cur.Events = append(cur.Events, InferEvent{Op: OpAccess, Access: acc, Stmt: int(ev.encStmt)})
			case evLock:
				cur.Events = append(cur.Events, InferEvent{Op: OpLock, Lock: ev.lockID, Stmt: int(ev.stmtID)})
			case evUnlock:
				cur.Events = append(cur.Events, InferEvent{Op: OpUnlock, Lock: ev.lockID, Stmt: int(ev.stmtID)})
			case evPrint:
				cur.Events = append(cur.Events, InferEvent{Op: OpPrint, Stmt: int(ev.stmtID)})
			case evWork:
				cur.Events = append(cur.Events, InferEvent{Op: OpWork, Work: ev.work, Stmt: int(ev.encStmt)})
			}
		}
		ns.Epochs = append(ns.Epochs, cur)
		sum.Nodes = append(sum.Nodes, ns)
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

// CheckBarrierStructure verifies every node inferred the same sequence of
// barrier statement IDs — the static analogue of the simulator's barrier
// alignment. A mismatch means the nodes' epochs cannot be paired and no
// trace can be synthesized.
func (s *Summary) CheckBarrierStructure() error {
	if len(s.Nodes) == 0 {
		return fmt.Errorf("vet: summary has no nodes")
	}
	first := s.Nodes[0].Epochs
	for _, ns := range s.Nodes[1:] {
		if len(ns.Epochs) != len(first) {
			return fmt.Errorf("vet: node 0 infers %d epoch(s) but node %d infers %d; barrier arrival is node-dependent",
				len(first), ns.Node, len(ns.Epochs))
		}
		for i := range ns.Epochs {
			if ns.Epochs[i].BarrierID != first[i].BarrierID {
				return fmt.Errorf("vet: epoch %d ends at barrier %d on node 0 but at barrier %d on node %d",
					i, first[i].BarrierID, ns.Epochs[i].BarrierID, ns.Node)
			}
		}
	}
	return nil
}
