package interp

import (
	"cachier/internal/coherence"
	"cachier/internal/parc"
)

// This file is the bytecode VM: a resumable dispatch loop over the
// instruction streams compile.go produces. The simulator (internal/sim)
// steps all P nodes as lanes of one scheduler loop, so the interpreter must
// be able to *return* whenever the machine parks or reschedules the lane,
// and to pick up exactly where it stopped on the next Resume.
//
// The stepper keeps the call stack explicitly (laneFrame), and every
// suspendable instruction — anything that can reach a Machine call: work
// charge flushes, shared accesses, barriers, locks, prints, directives,
// calls — is broken into numbered phases. lv.phase names the phase to
// re-enter; scalar scratch (term/off/addr/val/text) carries the
// instruction's partial state across the suspension.
//
// Observational equivalence with the tree-walker is the whole contract
// (see compile.go): the sequence of Machine calls, their arguments, and the
// flush boundaries are identical, because each phase issues exactly the
// calls the tree-walker issues at that point and nothing else. Data touches
// (Store.Load/StoreWord) stay *after* the corresponding Access call returns
// control to the lane — the same point in the total order at which the
// tree-walker, resumed from its park inside that call (sim/reference.go),
// performs them.

// LaneYielder is the lane's scheduling contract. After every Machine call
// the stepper asks LaneRunning whether its node is still the running lane; a
// false answer suspends the stepper at the current phase. With a view of its
// node (coherence.LaneView, where what a hit accounts for is kept) the lane
// charges work and counts cache hits in place, and calls LaneSwitch (the
// scheduling decision a Machine call would have ended in) only when its clock
// has passed the limit. A nil yielder never suspends: Resume then runs the
// program to completion, with Machine calls free to block internally
// (Context.Run).
type LaneYielder interface {
	LaneRunning(node int) bool
	LaneSwitch(node int)
	LaneView(node int) (v coherence.LaneView, ok bool)
}

// LaneStatus is Resume's outcome.
type LaneStatus uint8

const (
	// LaneSuspended: the yielder parked the lane; call Resume again when it
	// is scheduled.
	LaneSuspended LaneStatus = iota
	// LaneDone: the program finished (Err reports how).
	LaneDone
)

// laneFrame is one activation on the explicit call stack.
type laneFrame struct {
	co *fnCode
	fr *vmFrame
	ip int32
}

// Instruction phases. phStart is the only phase in which per-instruction
// bookkeeping (op count, entry work charges) runs; every suspendable step
// records its continuation phase before issuing the call that may park the
// lane.
const (
	phStart    uint8 = iota // fresh instruction
	phBody                  // entry charges done; run the body
	phMem                   // mid subscript walk (lv.term, lv.off)
	phFlushR                // flush, then the first Access / machine call
	phAccR                  // issue the read Access / machine call
	phDataR                 // deferred load data touch
	phFlushW                // flush, then the write Access
	phAccW                  // issue the write Access
	phDataW                 // deferred store data touch
	phCallWork              // opCall overhead flushed; push the frame
	phFinal                 // main returned; final flush
)

// stepResult is an instruction handler's outcome.
type stepResult uint8

const (
	stepAdvance        stepResult = iota // instruction done, ip++
	stepSuspend                          // parked mid-instruction at lv.phase
	stepAdvanceSuspend                   // instruction done AND parked
	stepErr                              // runtime error in lv.err
	stepFrame                            // call stack changed; reload frame
)

// LaneVM executes one node's program as a resumable lane.
type LaneVM struct {
	c      *Context
	y      LaneYielder
	view   coherence.LaneView
	viewed bool // false: no view, every charge and access is a Machine call

	stack []laneFrame

	phase   uint8
	drain   bool  // a chargeUnits-style drain was parked mid-flush
	charged bool  // the current phase's pending-add already happened
	term    int   // subscript walk position
	off     int64 // accumulated element offset
	addr    uint64
	val     Value
	text    string

	err  error
	done bool
}

// NewLaneVM prepares a resumable lane for the context's program. It fails
// when the program has no main or the compiler refused one of its functions,
// which for a checked program is a compiler bug. On success the context is
// committed to this LaneVM; do not also call Run.
func (c *Context) NewLaneVM(y LaneYielder) (*LaneVM, error) {
	main := c.prog.FuncMap["main"]
	if main == nil {
		return nil, errNoMain
	}
	pcm := c.prog.Artifact(func() any { return compileProgram(c.prog) }).(*progCode)
	if pcm.err != nil {
		return nil, pcm.err
	}
	co := pcm.fns[main]
	if c.pools == nil || len(c.pools) < len(pcm.fns) {
		c.pools = make([][]*vmFrame, len(pcm.fns))
	}
	c.depth++
	lv := &LaneVM{c: c, y: y}
	if y != nil {
		lv.view, lv.viewed = y.LaneView(c.node)
	}
	lv.stack = append(lv.stack, laneFrame{co: co, fr: c.acquire(co)})
	return lv, nil
}

// Err returns the program's terminal error once Resume reported LaneDone
// (nil on clean completion, or after Kill).
func (lv *LaneVM) Err() error { return lv.err }

// Kill marks the lane finished without an error of its own; the machine
// uses it when it terminates the processor from inside one of its own
// calls (a processor fault) and has already recorded the cause.
func (lv *LaneVM) Kill() { lv.done = true }

// RunToCompletion drives the lane until the program finishes; only
// meaningful with a nil yielder, where Resume cannot suspend.
func (lv *LaneVM) RunToCompletion() error {
	for lv.Resume() != LaneDone {
	}
	return lv.err
}

func (lv *LaneVM) running() bool {
	return lv.y == nil || lv.y.LaneRunning(lv.c.node)
}

func (lv *LaneVM) finish() LaneStatus {
	lv.done = true
	return LaneDone
}

func (lv *LaneVM) fail(err error) LaneStatus {
	// The frames on the stack are abandoned, not released; their depth is
	// given back, as the tree-walker's unwinding calls give theirs back.
	lv.c.depth -= len(lv.stack)
	lv.err = err
	lv.done = true
	return LaneDone
}

// work charges cycles of local computation and reports whether the lane is
// still running: Machine.Work, or through the view the same clock advance and
// keep-running compare with no call.
func (lv *LaneVM) work(cycles uint64) bool {
	c := lv.c
	if v := &lv.view; lv.viewed {
		*v.Clock += cycles
		if *v.Clock <= *v.Limit {
			return true
		}
		lv.y.LaneSwitch(c.node)
	} else {
		c.mach.Work(c.node, cycles)
	}
	return lv.running()
}

// access reports the shared reference at lv.addr and reports whether the
// lane is still running: Machine.Access, unless the view says it is a hit
// that changes no state.
func (lv *LaneVM) access(write bool, pc int32) bool {
	c := lv.c
	if v := &lv.view; lv.viewed && v.Hit(write, lv.addr) {
		if *v.Clock <= *v.Limit {
			return true
		}
		lv.y.LaneSwitch(c.node)
	} else {
		c.mach.Access(c.node, write, lv.addr, int(pc))
	}
	return lv.running()
}

// drainPending replays the flush cadence of the tree-walker's per-unit
// work(1) charges, which cross the limit one unit at a time: pending
// crossed the limit, so report exactly workFlushLimit cycles per Work call
// until it is below the limit again. Returns false when the yielder parked the lane
// mid-drain; Resume's preamble finishes the job on the next schedule.
func (lv *LaneVM) drainPending() bool {
	c := lv.c
	for c.pending >= workFlushLimit {
		c.pending -= workFlushLimit
		if !lv.work(workFlushLimit) {
			lv.drain = true
			return false
		}
	}
	return true
}

// flushPending replays Context.flush: one Work charge for the whole pending
// amount. Returns false when the yielder parked the lane after it. With
// nothing pending nothing can have: an executing lane is the running one.
func (lv *LaneVM) flushPending() bool {
	c := lv.c
	if c.pending == 0 {
		return true
	}
	pend := c.pending
	c.pending = 0
	return lv.work(pend)
}

// memWalk resumes (or starts) a memAccess subscript walk at phMem: per-term
// unit charges, index read, bounds check, in exactly the tree-walker's
// order (the charges and checks compile.go folded into the access op), with
// the postWork charges after the last check. The flattened element offset
// accumulates in lv.off. charged guards against re-adding a term's charge
// when a flush parked the lane between the add and the drain's end.
func (lv *LaneVM) memWalk(ma *memAccess, regs []Value, pc int32) stepResult {
	c := lv.c
	for lv.term < len(ma.terms) {
		t := &ma.terms[lv.term]
		if t.nwork != 0 && !lv.charged {
			lv.charged = true
			c.pending += uint64(t.nwork)
		}
		if c.pending >= workFlushLimit && !lv.drainPending() {
			return stepSuspend
		}
		lv.charged = false
		ix := regs[t.reg].AsInt()
		if t.size > 0 && uint64(ix) >= uint64(t.size) {
			lv.err = c.boundsErr(ma, t, ix, pc)
			return stepErr
		}
		lv.off += ix * t.stride
		lv.term++
	}
	if ma.postWork != 0 && !lv.charged {
		lv.charged = true
		c.pending += uint64(ma.postWork)
	}
	if c.pending >= workFlushLimit && !lv.drainPending() {
		return stepSuspend
	}
	lv.charged = false
	return stepAdvance
}

// loadShared is opLoadShared in phases: subscript walk, flush, read Access,
// deferred data load.
func (lv *LaneVM) loadShared(in *instr, regs []Value, ph uint8) stepResult {
	c := lv.c
	ma := in.aux.(*memAccess)
	if ph <= phBody {
		if ma.terms == nil {
			// Constant offset: nothing is charged before the flush.
			lv.addr = c.bases[ma.decl.Index] + uint64(ma.constOff)*parc.ElemSize
			ph = phFlushR
		} else {
			lv.off = ma.constOff
			lv.term = 0
			ph = phMem
		}
		lv.phase = ph
	}
	if ph == phMem {
		if st := lv.memWalk(ma, regs, in.pc); st != stepAdvance {
			return st
		}
		lv.addr = c.bases[ma.decl.Index] + uint64(lv.off)*parc.ElemSize
		ph = phFlushR
		lv.phase = ph
	}
	if ph == phFlushR {
		ph = phAccR
		lv.phase = ph
		if !lv.flushPending() {
			return stepSuspend
		}
	}
	if ph == phAccR {
		lv.phase = phDataR
		if !lv.access(false, in.pc) {
			return stepSuspend
		}
	}
	// phDataR: the data touch happens when the lane is scheduled after the
	// Access — the same point the tree-walker, resumed inside it, reads.
	regs[in.a] = FromBits(c.store.Load(lv.addr), ma.isFloat)
	lv.phase = phStart
	return stepAdvance
}

// asgShared is opAsgShared in phases: subscript walk, then for compound
// assignment a flush + read Access + deferred load, then flush + write
// Access + deferred store.
func (lv *LaneVM) asgShared(in *instr, regs []Value, ph uint8) stepResult {
	c := lv.c
	ma := in.aux.(*memAccess)
	if ph <= phBody {
		if ma.terms == nil {
			lv.addr = c.bases[ma.decl.Index] + uint64(ma.constOff)*parc.ElemSize
			ph = phFlushR
		} else {
			lv.off = ma.constOff
			lv.term = 0
			ph = phMem
		}
		lv.phase = ph
	}
	if ph == phMem {
		if st := lv.memWalk(ma, regs, in.pc); st != stepAdvance {
			return st
		}
		lv.addr = c.bases[ma.decl.Index] + uint64(lv.off)*parc.ElemSize
		ph = phFlushR
		lv.phase = ph
	}
	if ph == phFlushR {
		if ma.assignOp == parc.OpSet {
			// Plain store: no read; the value needs only the RHS register.
			lv.val = applyOp(Value{}, ma.assignOp, regs[in.b], ma.isFloat)
			ph = phFlushW
		} else {
			ph = phAccR
			lv.phase = ph
			if !lv.flushPending() {
				return stepSuspend
			}
		}
		lv.phase = ph
	}
	if ph == phAccR {
		lv.phase = phDataR
		if !lv.access(false, in.pc) {
			return stepSuspend
		}
		ph = phDataR
	}
	if ph == phDataR {
		cur := FromBits(c.store.Load(lv.addr), ma.isFloat)
		lv.val = applyOp(cur, ma.assignOp, regs[in.b], ma.isFloat)
		ph = phFlushW
		lv.phase = ph
	}
	if ph == phFlushW {
		ph = phAccW
		lv.phase = ph
		// After a compound's read this is pending == 0, matching the
		// tree-walker's second (empty) flush; for a plain store it carries
		// the real flush.
		if !lv.flushPending() {
			return stepSuspend
		}
	}
	if ph == phAccW {
		lv.phase = phDataW
		if !lv.access(true, in.pc) {
			return stepSuspend
		}
	}
	// phDataW: deferred store, after the write Access returned the lane.
	c.store.StoreWord(lv.addr, lv.val.Bits())
	lv.phase = phStart
	return stepAdvance
}

// privAccess is opLoadArr/opAsgArr in phases: only the subscript walk can
// suspend (its charges may flush); the data touch is frame-private.
func (lv *LaneVM) privAccess(in *instr, f *laneFrame, regs []Value, ph uint8) stepResult {
	c := lv.c
	ma := in.aux.(*memAccess)
	if ph <= phBody {
		lv.off = ma.constOff
		lv.term = 0
		lv.phase = phMem
	}
	if st := lv.memWalk(ma, regs, in.pc); st != stepAdvance {
		return st
	}
	lv.phase = phStart
	if in.op == opLoadArr {
		c.privReads++
		regs[in.a] = f.fr.arrays[ma.arr].data[lv.off]
		return stepAdvance
	}
	pa := &f.fr.arrays[ma.arr]
	if ma.assignOp != parc.OpSet {
		c.privReads++
	}
	c.privWrites++
	pa.data[lv.off] = applyOp(pa.data[lv.off], ma.assignOp, regs[in.b], ma.isFloat)
	return stepAdvance
}

// machineCall handles the flush-then-call instructions (barrier, lock,
// unlock, print, directives). The call completes the instruction; a park
// right after it suspends at the *next* instruction.
func (lv *LaneVM) machineCall(in *instr, regs []Value, ph uint8) stepResult {
	c := lv.c
	if ph <= phBody {
		if in.op == opPrint {
			// Format before the flush, exactly as the tree-walker does.
			p := in.aux.(*printPayload)
			vals := c.printBuf[:0]
			for _, r := range p.args {
				vals = append(vals, regs[r])
			}
			c.printBuf = vals
			lv.text = formatPrint(p.format, vals)
		}
		ph = phFlushR
		lv.phase = ph
	}
	if ph == phFlushR {
		ph = phAccR
		lv.phase = ph
		if !lv.flushPending() {
			return stepSuspend
		}
	}
	// phAccR: issue the machine call.
	lv.phase = phStart
	switch in.op {
	case opBarrier:
		c.mach.Barrier(c.node, int(in.pc))
	case opLock:
		c.mach.Lock(c.node, regs[in.a].AsInt(), int(in.pc))
	case opUnlock:
		c.mach.Unlock(c.node, regs[in.a].AsInt(), int(in.pc))
	case opPrint:
		c.mach.Print(c.node, lv.text)
	case opDirEmit:
		p := in.aux.(*dirPayload)
		c.mach.Directive(c.node, p.kind, c.expandRanges(p.decl), int(in.pc))
	case opDirNil:
		p := in.aux.(*dirPayload)
		c.mach.Directive(c.node, p.kind, nil, int(in.pc))
	}
	if !lv.running() {
		return stepAdvanceSuspend
	}
	return stepAdvance
}

// call is opCall in phases: the call-overhead charge (Context.work(2) — a
// single flush of the whole pending amount at the threshold, unlike
// drainPending's fixed-size drains), then depth check and frame push.
func (lv *LaneVM) call(in *instr, regs []Value, ph uint8) stepResult {
	c := lv.c
	p := in.aux.(*callPayload)
	if ph <= phBody {
		c.pending += 2
		if c.pending >= workFlushLimit {
			lv.phase = phCallWork
			if !lv.flushPending() {
				return stepSuspend
			}
		}
	}
	lv.phase = phStart
	co := p.code
	if c.depth >= maxCallDepth {
		lv.err = c.vmErr(in.pc, "call depth exceeds %d (runaway recursion in %s?)", maxCallDepth, co.fn.Name)
		return stepErr
	}
	c.depth++
	fr := c.acquire(co)
	for i := range co.fn.Params {
		fr.regs[i] = coerce(regs[p.args[i]], co.fn.Params[i].Base)
	}
	lv.stack = append(lv.stack, laneFrame{co: co, fr: fr})
	return stepFrame
}

// Resume advances the lane until the yielder parks it or the program ends:
// the dispatch loop, over an explicit frame stack with ip held in the
// frame.
func (lv *LaneVM) Resume() LaneStatus {
	if lv.done {
		return LaneDone
	}
	c := lv.c
	count := c.countOps
	var nops uint64
	if count {
		defer func() { c.ops += nops }()
	}
	// Finish a parked work drain or the final flush before re-dispatching.
	if lv.drain {
		if !lv.drainPending() {
			return LaneSuspended
		}
		lv.drain = false
	}
	if lv.phase == phFinal {
		if !lv.flushPending() {
			return LaneSuspended
		}
		return lv.finish()
	}
frames:
	for {
		f := &lv.stack[len(lv.stack)-1]
		co := f.co
		ins := co.ins
		regs := f.fr.regs
		for {
			in := &ins[f.ip]
			ph := lv.phase
			if ph == phStart {
				if count {
					nops++
				}
				if in.nwork != 0 {
					if tot := c.pending + uint64(in.nwork); tot < workFlushLimit {
						c.pending = tot
					} else {
						c.pending = tot
						lv.phase = phBody
						if !lv.drainPending() {
							return LaneSuspended
						}
						lv.phase = phStart
					}
				}
			} else {
				// Re-entry mid-instruction: the handler consumes ph.
				lv.phase = phStart
			}
			switch in.op {
			case opNop:

			case opConst:
				regs[in.a] = in.imm

			case opCoerce:
				regs[in.a] = coerce(regs[in.b], parc.BaseType(in.n))

			case opJump:
				f.ip = in.n
				continue

			case opJz:
				if !regs[in.a].Truthy() {
					f.ip = in.n
					continue
				}

			case opSCAnd:
				if !regs[in.b].Truthy() {
					regs[in.a] = IntVal(0)
					f.ip = in.n
					continue
				}

			case opSCOr:
				if regs[in.b].Truthy() {
					regs[in.a] = IntVal(1)
					f.ip = in.n
					continue
				}

			case opTruthy:
				regs[in.a] = boolVal(regs[in.b].Truthy())

			case opNeg:
				if x := regs[in.b]; x.Float {
					regs[in.a] = FloatVal(-x.F)
				} else {
					regs[in.a] = IntVal(-x.I)
				}

			case opNot:
				if regs[in.b].Truthy() {
					regs[in.a] = IntVal(0)
				} else {
					regs[in.a] = IntVal(1)
				}

			case opAdd:
				x, y := regs[in.b], regs[in.c]
				if x.Float || y.Float {
					regs[in.a] = FloatVal(x.AsFloat() + y.AsFloat())
				} else {
					regs[in.a] = IntVal(x.I + y.I)
				}

			case opSub:
				x, y := regs[in.b], regs[in.c]
				if x.Float || y.Float {
					regs[in.a] = FloatVal(x.AsFloat() - y.AsFloat())
				} else {
					regs[in.a] = IntVal(x.I - y.I)
				}

			case opMul:
				x, y := regs[in.b], regs[in.c]
				if x.Float || y.Float {
					regs[in.a] = FloatVal(x.AsFloat() * y.AsFloat())
				} else {
					regs[in.a] = IntVal(x.I * y.I)
				}

			case opDiv:
				x, y := regs[in.b], regs[in.c]
				if x.Float || y.Float {
					regs[in.a] = FloatVal(x.AsFloat() / y.AsFloat())
				} else if y.I == 0 {
					return lv.fail(c.vmErr(in.pc, "integer division by zero"))
				} else {
					regs[in.a] = IntVal(x.I / y.I)
				}

			case opMod:
				x, y := regs[in.b], regs[in.c]
				if x.Float || y.Float {
					return lv.fail(c.vmErr(in.pc, "%% requires integer operands"))
				}
				if y.I == 0 {
					return lv.fail(c.vmErr(in.pc, "integer modulo by zero"))
				}
				regs[in.a] = IntVal(x.I % y.I)

			case opEq:
				regs[in.a] = boolVal(compare(regs[in.b], regs[in.c]) == 0)
			case opNe:
				regs[in.a] = boolVal(compare(regs[in.b], regs[in.c]) != 0)
			case opLt:
				regs[in.a] = boolVal(compare(regs[in.b], regs[in.c]) < 0)
			case opLe:
				regs[in.a] = boolVal(compare(regs[in.b], regs[in.c]) <= 0)
			case opGt:
				regs[in.a] = boolVal(compare(regs[in.b], regs[in.c]) > 0)
			case opGe:
				regs[in.a] = boolVal(compare(regs[in.b], regs[in.c]) >= 0)

			case opEqJf:
				if compare(regs[in.b], regs[in.c]) != 0 {
					f.ip = in.n
					continue
				}
			case opNeJf:
				if compare(regs[in.b], regs[in.c]) == 0 {
					f.ip = in.n
					continue
				}
			case opLtJf:
				if compare(regs[in.b], regs[in.c]) >= 0 {
					f.ip = in.n
					continue
				}
			case opLeJf:
				if compare(regs[in.b], regs[in.c]) > 0 {
					f.ip = in.n
					continue
				}
			case opGtJf:
				if compare(regs[in.b], regs[in.c]) <= 0 {
					f.ip = in.n
					continue
				}
			case opGeJf:
				if compare(regs[in.b], regs[in.c]) < 0 {
					f.ip = in.n
					continue
				}

			case opBuiltin:
				v, err := c.vmBuiltin(in, regs)
				if err != nil {
					return lv.fail(err)
				}
				regs[in.a] = v

			case opCall:
				switch lv.call(in, regs, ph) {
				case stepSuspend:
					return LaneSuspended
				case stepErr:
					return lv.fail(lv.err)
				case stepFrame:
					continue frames
				}

			case opRet:
				var v Value
				if in.a >= 0 {
					v = regs[in.a]
				}
				lv.stack = lv.stack[:len(lv.stack)-1]
				c.release(co, f.fr)
				c.depth--
				if len(lv.stack) == 0 {
					// main returned: the run ends with Context.flush.
					lv.phase = phFinal
					if !lv.flushPending() {
						return LaneSuspended
					}
					return lv.finish()
				}
				pf := &lv.stack[len(lv.stack)-1]
				dst := pf.co.ins[pf.ip].a
				if co.fn.Result != nil {
					pf.fr.regs[dst] = coerce(v, *co.fn.Result)
				} else {
					pf.fr.regs[dst] = Value{}
				}
				pf.ip++
				continue frames

			case opForPrep:
				p := in.aux.(*forPayload)
				st := int64(1)
				if p.step >= 0 {
					st = regs[p.step].AsInt()
				}
				if st == 0 {
					return lv.fail(c.vmErr(in.pc, "for %s: zero step", p.varName))
				}
				regs[p.base] = IntVal(regs[p.from].AsInt())
				regs[p.base+1] = IntVal(regs[p.to].AsInt())
				regs[p.base+2] = IntVal(st)

			case opForCheck:
				i, hi, st := regs[in.a].I, regs[in.a+1].I, regs[in.a+2].I
				if (st > 0 && i <= hi) || (st < 0 && i >= hi) {
					regs[in.b] = IntVal(i)
				} else {
					f.ip = in.n
					continue
				}

			case opForNext:
				st := regs[in.a+2].I
				i := regs[in.a].I + st
				regs[in.a].I = i
				if (st > 0 && i <= regs[in.a+1].I) || (st < 0 && i >= regs[in.a+1].I) {
					regs[in.b] = IntVal(i)
					f.ip = in.n + 1 // skip the entry check, straight to the body
					continue
				}
				// Loop finished: fall through to the exit label bound just after.

			case opAllocArr:
				p := in.aux.(*allocPayload)
				pa := &f.fr.arrays[p.arr]
				if cap(pa.cache) >= p.size {
					pa.data = pa.cache[:p.size]
				} else {
					pa.data = make([]Value, p.size)
					pa.cache = pa.data
				}
				zero := coerce(Value{}, p.base)
				for i := range pa.data {
					pa.data[i] = zero
				}
				pa.base = p.base
				pa.dims = p.dims

			case opArrNil:
				if f.fr.arrays[in.a].data == nil {
					return lv.fail(c.vmErr(in.pc, "%s", in.aux.(*failPayload).msg))
				}

			case opBounds:
				ix := int(regs[in.b].AsInt())
				if ix < 0 || ix >= int(in.n) {
					bp := in.aux.(*boundsPayload)
					return lv.fail(c.vmErr(in.pc, "%s: index %d out of range [0,%d) in dimension %d", bp.name, ix, int(in.n), bp.dim))
				}

			case opFail:
				return lv.fail(c.vmErr(in.pc, "%s", in.aux.(*failPayload).msg))

			case opDivGuardReg:
				if rhs := regs[in.b]; !rhs.Float && rhs.I == 0 && !regs[in.a].Float {
					return lv.fail(c.vmErr(in.pc, "integer division by zero in /="))
				}

			case opDivGuardInt:
				if rhs := regs[in.b]; !rhs.Float && rhs.I == 0 {
					return lv.fail(c.vmErr(in.pc, "integer division by zero in /="))
				}

			case opAsgLocal:
				cur := regs[in.a]
				regs[in.a] = applyOp(cur, parc.AssignOp(in.n), regs[in.b], cur.Float)

			case opLoadArr, opAsgArr:
				switch lv.privAccess(in, f, regs, ph) {
				case stepSuspend:
					return LaneSuspended
				case stepErr:
					return lv.fail(lv.err)
				}

			case opLoadShared:
				switch lv.loadShared(in, regs, ph) {
				case stepSuspend:
					return LaneSuspended
				case stepErr:
					return lv.fail(lv.err)
				}

			case opAsgShared:
				switch lv.asgShared(in, regs, ph) {
				case stepSuspend:
					return LaneSuspended
				case stepErr:
					return lv.fail(lv.err)
				}

			case opBarrier, opLock, opUnlock, opPrint, opDirEmit, opDirNil:
				switch lv.machineCall(in, regs, ph) {
				case stepSuspend:
					return LaneSuspended
				case stepAdvanceSuspend:
					f.ip++
					return LaneSuspended
				}

			case opDirBegin:
				c.dirLos = c.dirLos[:0]
				c.dirHis = c.dirHis[:0]

			case opDirDim:
				p := in.aux.(*dirPayload)
				lo := int(regs[in.a].AsInt())
				hi := lo
				if in.b >= 0 {
					hi = int(regs[in.b].AsInt())
				}
				lo = max(lo, 0)
				hi = min(hi, p.decl.DimSizes[in.c]-1)
				if lo > hi {
					f.ip = in.n // empty after clamping
					continue
				}
				c.dirLos = append(c.dirLos, lo)
				c.dirHis = append(c.dirHis, hi)

			default:
				return lv.fail(c.vmErr(in.pc, "vm: bad opcode %d", in.op))
			}
			f.ip++
		}
	}
}
