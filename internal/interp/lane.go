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
// instruction's partial state across the suspension. Resume finishes a
// parked instruction before it enters the dispatch loop (reenter), so the
// loop itself only ever starts instructions and never tests the phase.
//
// Observational equivalence with the tree-walker is the whole contract
// (see compile.go): the sequence of Machine calls, their arguments, and the
// flush boundaries are identical, because each phase issues exactly the
// calls the tree-walker issues at that point and nothing else. Data touches
// (Store.Load/StoreWord) stay *after* the corresponding Access call returns
// control to the lane — the same point in the total order at which the
// tree-walker, resumed from its park inside that call (TreeLane), performs
// them.

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

// Instruction phases. Every suspendable step records its continuation phase
// before issuing the call that may park the lane.
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
	stepRestart                          // start the instruction at ip afresh
	stepDone                             // the program finished
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
	val     uint64
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
	pcm := c.prog.Artifact(codeKey{}, func() any { return compileProgram(c.prog) }).(*progCode)
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
// crossed the limit, so report exactly WorkFlushLimit cycles per Work call
// until it is below the limit again. Returns false when the yielder parked the lane
// mid-drain; Resume's preamble finishes the job on the next schedule.
func (lv *LaneVM) drainPending() bool {
	c := lv.c
	for c.pending >= WorkFlushLimit {
		c.pending -= WorkFlushLimit
		if !lv.work(WorkFlushLimit) {
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

// startWalk begins an access's subscript walk: in one go when its charges
// cannot reach the flush limit and every check passes (the address is then
// lv.off), else as the phased walk at phMem.
func (lv *LaneVM) startWalk(ma *memAccess, regs []uint64) uint8 {
	c := lv.c
	if c.pending+ma.work < WorkFlushLimit {
		if off, ok := ma.offset(regs); ok {
			c.pending += ma.work
			lv.off = off
			return phFlushR
		}
	}
	lv.off = ma.constOff
	lv.term = 0
	return phMem
}

// memWalk resumes (or starts) a memAccess subscript walk at phMem: per-term
// unit charges, index read, bounds check, in exactly the tree-walker's
// order (the charges and checks compile.go folded into the access op), with
// the postWork charges after the last check. The flattened element offset
// accumulates in lv.off. charged guards against re-adding a term's charge
// when a flush parked the lane between the add and the drain's end.
func (lv *LaneVM) memWalk(ma *memAccess, regs []uint64, pc int32) stepResult {
	c := lv.c
	for lv.term < len(ma.terms) {
		t := &ma.terms[lv.term]
		if t.nwork != 0 && !lv.charged {
			lv.charged = true
			c.pending += uint64(t.nwork)
		}
		if c.pending >= WorkFlushLimit && !lv.drainPending() {
			return stepSuspend
		}
		lv.charged = false
		ix := int64(regs[t.reg])
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
	if c.pending >= WorkFlushLimit && !lv.drainPending() {
		return stepSuspend
	}
	lv.charged = false
	return stepAdvance
}

// walk runs an access's subscript walk from phase ph to its address: the
// element offset in lv.off, and for a shared access the byte address in
// lv.addr. It returns the phase the access continues at.
func (lv *LaneVM) walk(in *instr, ma *memAccess, regs []uint64, ph uint8) (uint8, stepResult) {
	if ph == phStart {
		ph = lv.startWalk(ma, regs)
		lv.phase = ph
	}
	if ph == phMem {
		if st := lv.memWalk(ma, regs, in.pc); st != stepAdvance {
			return ph, st
		}
		ph = phFlushR
		lv.phase = ph
	}
	if ma.decl != nil && ph == phFlushR {
		lv.addr = lv.c.bases[ma.decl.Index] + uint64(lv.off)*parc.ElemSize
	}
	return ph, stepAdvance
}

// fastAddr is the usual start of a shared access, in one go: with a view,
// when neither the walk's charges nor the flush after them can reach a
// limit (the flush limit, the clock's) and every bounds check passes, it
// makes the walk's charges and the flush, leaves the address in lv.addr and
// reports true. Otherwise it changes nothing.
func (lv *LaneVM) fastAddr(ma *memAccess, regs []uint64) bool {
	c, v := lv.c, &lv.view
	w := c.pending + ma.work
	if !lv.viewed || w >= WorkFlushLimit || *v.Clock+w > *v.Limit {
		return false
	}
	off, ok := ma.offset(regs)
	if !ok {
		return false
	}
	*v.Clock += w
	c.pending = 0
	lv.addr = c.bases[ma.decl.Index] + uint64(off)*parc.ElemSize
	return true
}

// loadShared is opLoadShared in phases: subscript walk, flush, read Access,
// deferred data load.
func (lv *LaneVM) loadShared(in *instr, regs []uint64, ph uint8) stepResult {
	c := lv.c
	ma := in.aux.(*memAccess)
	if ph == phStart && lv.fastAddr(ma, regs) {
		ph = phAccR
	} else {
		var st stepResult
		if ph, st = lv.walk(in, ma, regs, ph); st != stepAdvance {
			return st
		}
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
	regs[in.a] = c.store.Load(lv.addr)
	lv.phase = phStart
	return stepAdvance
}

// asgShared is opAsgShared in phases: subscript walk, then for compound
// assignment a flush + read Access + deferred load, then flush + write
// Access + deferred store.
func (lv *LaneVM) asgShared(in *instr, regs []uint64, ph uint8) stepResult {
	c := lv.c
	ma := in.aux.(*memAccess)
	if ph == phStart && lv.fastAddr(ma, regs) {
		ph = phAccR
		if ma.asg == asgSet {
			lv.val = regs[in.b]
			ph = phAccW
		}
	} else {
		var st stepResult
		if ph, st = lv.walk(in, ma, regs, ph); st != stepAdvance {
			return st
		}
	}
	if ph == phFlushR {
		if ma.asg == asgSet {
			// Plain store: no read; the value needs only the RHS register.
			lv.val = regs[in.b]
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
		lv.val = ma.apply(c.store.Load(lv.addr), regs, in.b)
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
	c.store.StoreWord(lv.addr, lv.val)
	lv.phase = phStart
	return stepAdvance
}

// privAccess is opLoadArr/opAsgArr in phases: only the subscript walk can
// suspend (its charges may flush); the data touch is frame-private.
func (lv *LaneVM) privAccess(in *instr, f *laneFrame, regs []uint64, ph uint8) stepResult {
	c := lv.c
	ma := in.aux.(*memAccess)
	if _, st := lv.walk(in, ma, regs, ph); st != stepAdvance {
		return st
	}
	lv.phase = phStart
	c.privTouch(in, ma, &f.fr.arrays[ma.arr], regs, lv.off)
	return stepAdvance
}

// privTouch is a private access's data touch at element off, and its count.
func (c *Context) privTouch(in *instr, ma *memAccess, pa *vmArray, regs []uint64, off int64) {
	if in.op == opLoadArr {
		c.privReads++
		regs[in.a] = pa.data[off]
		return
	}
	c.privWrites++
	if ma.asg == asgSet {
		pa.data[off] = regs[in.b]
		return
	}
	c.privReads++
	pa.data[off] = ma.apply(pa.data[off], regs, in.b)
}

// machineCall handles the flush-then-call instructions (barrier, lock,
// unlock, print, directives). The call completes the instruction; a park
// right after it suspends at the *next* instruction.
func (lv *LaneVM) machineCall(in *instr, regs []uint64, ph uint8) stepResult {
	c := lv.c
	if ph == phStart {
		if in.op == opPrint {
			// Format before the flush, exactly as the tree-walker does.
			p := in.aux.(*printPayload)
			vals := c.printBuf[:0]
			for _, a := range p.args {
				vals = append(vals, regValue(regs, a.r, a.k))
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
		c.mach.Lock(c.node, int64(regs[in.a]), int(in.pc))
	case opUnlock:
		c.mach.Unlock(c.node, int64(regs[in.a]), int(in.pc))
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

// call is opCall in phases: the call-overhead charge (Context.work(CallCharge)
// — a single flush of the whole pending amount at the threshold, unlike
// drainPending's fixed-size drains), then depth check and frame push. The
// arguments are already of the parameters' types.
func (lv *LaneVM) call(in *instr, regs []uint64, ph uint8) stepResult {
	c := lv.c
	p := in.aux.(*callPayload)
	if ph == phStart {
		c.pending += CallCharge
		if c.pending >= WorkFlushLimit {
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
	for i, r := range p.args {
		fr.regs[i] = regs[r]
	}
	lv.stack = append(lv.stack, laneFrame{co: co, fr: fr})
	return stepFrame
}

// ret is opRet: pop the frame and deliver the result to the caller's call
// instruction (zero, both types' zero, when there is none), or, when main
// returns, end the run with Context.flush.
func (lv *LaneVM) ret(in *instr, f *laneFrame) stepResult {
	c := lv.c
	var w uint64
	if in.a >= 0 {
		w = f.fr.regs[in.a]
	}
	co := f.co
	lv.stack = lv.stack[:len(lv.stack)-1]
	c.release(co, f.fr)
	c.depth--
	if len(lv.stack) == 0 {
		lv.phase = phFinal
		if !lv.flushPending() {
			return stepSuspend
		}
		return stepDone
	}
	pf := &lv.stack[len(lv.stack)-1]
	pf.fr.regs[pf.co.ins[pf.ip].a] = w
	pf.ip++
	return stepFrame
}

// reenter finishes the instruction the lane was parked in, so that the
// dispatch loop only ever starts instructions: it calls the instruction's
// handler at the recorded phase and advances past it.
func (lv *LaneVM) reenter() stepResult {
	ph := lv.phase
	if ph == phFinal {
		if !lv.flushPending() {
			return stepSuspend
		}
		return stepDone
	}
	lv.phase = phStart
	f := &lv.stack[len(lv.stack)-1]
	in := &f.co.ins[f.ip]
	if ph == phBody {
		// Parked draining the instruction's own charges: start it again
		// with them taken back out, so the loop's re-add nets to nothing
		// (pending wraps below zero for that moment, which unsigned
		// arithmetic undoes exactly).
		lv.c.pending -= uint64(in.nwork)
		return stepRestart
	}
	regs := f.fr.regs
	var st stepResult
	switch in.op {
	case opCall:
		st = lv.call(in, regs, ph)
	case opLoadArr, opAsgArr:
		st = lv.privAccess(in, f, regs, ph)
	case opLoadShared:
		st = lv.loadShared(in, regs, ph)
	case opAsgShared:
		st = lv.asgShared(in, regs, ph)
	default:
		st = lv.machineCall(in, regs, ph)
	}
	if st == stepAdvance || st == stepAdvanceSuspend {
		f.ip++
	}
	return st
}

// Resume advances the lane until the yielder parks it or the program ends.
func (lv *LaneVM) Resume() LaneStatus {
	if lv.done {
		return LaneDone
	}
	st, nops := lv.run()
	if lv.c.countOps {
		lv.c.ops += nops
	}
	return st
}

// run is Resume's body: re-entry, then the dispatch loop over an explicit
// frame stack. The loop keeps ip and pending in locals and writes them back
// (f.ip, c.pending) only around the handlers that can reach a Machine call;
// nops counts the instructions it starts.
func (lv *LaneVM) run() (LaneStatus, uint64) {
	c := lv.c
	// Finish a parked work drain, then the parked instruction.
	if lv.drain {
		if !lv.drainPending() {
			return LaneSuspended, 0
		}
		lv.drain = false
	}
	var nops uint64
	if lv.phase != phStart {
		switch lv.reenter() {
		case stepSuspend, stepAdvanceSuspend:
			return LaneSuspended, 0
		case stepErr:
			return lv.fail(lv.err), 0
		case stepDone:
			lv.done = true
			return LaneDone, 0
		case stepRestart:
			nops-- // counted when it first started; the loop counts it again
		}
	}
	for {
		f := &lv.stack[len(lv.stack)-1]
		ins := f.co.ins
		regs := f.fr.regs
		ip := f.ip
		pending := c.pending
		var st stepResult
	dispatch:
		for {
			in := &ins[ip]
			nops++
			if in.nwork != 0 {
				if pending += uint64(in.nwork); pending >= WorkFlushLimit {
					c.pending, f.ip = pending, ip
					lv.phase = phBody
					if !lv.drainPending() {
						return LaneSuspended, nops
					}
					lv.phase = phStart
					pending = c.pending
				}
			}
			switch in.op {
			case opNop:

			case opConst:
				regs[in.a] = in.imm

			case opMov:
				regs[in.a] = regs[in.b]

			case opI2F:
				regs[in.a] = w64(float64(int64(regs[in.b])))

			case opF2I:
				regs[in.a] = uint64(int64(f64(regs[in.b])))

			case opD2I:
				if regs[in.b+1] != 0 {
					regs[in.a] = uint64(int64(f64(regs[in.b])))
				} else {
					regs[in.a] = regs[in.b]
				}

			case opD2F:
				if regs[in.b+1] != 0 {
					regs[in.a] = regs[in.b]
				} else {
					regs[in.a] = w64(float64(int64(regs[in.b])))
				}

			case opTruthyF:
				regs[in.a] = b2w(f64(regs[in.b]) != 0)

			case opJump:
				ip = in.n
				continue

			case opJz:
				if regs[in.a] == 0 {
					ip = in.n
					continue
				}

			case opSCAnd:
				if regs[in.b] == 0 {
					regs[in.a] = 0
					ip = in.n
					continue
				}

			case opSCOr:
				if regs[in.b] != 0 {
					regs[in.a] = 1
					ip = in.n
					continue
				}

			case opTruthy:
				regs[in.a] = b2w(regs[in.b] != 0)

			case opNot:
				regs[in.a] = b2w(regs[in.b] == 0)

			case opNegI:
				regs[in.a] = -regs[in.b]

			case opNegF:
				regs[in.a] = w64(-f64(regs[in.b]))

			case opModI:
				y := int64(regs[in.c])
				if y == 0 {
					c.pending, f.ip = pending, ip
					return lv.fail(c.vmErr(in.pc, "integer modulo by zero")), nops
				}
				regs[in.a] = uint64(int64(regs[in.b]) % y)

			case opAddI:
				regs[in.a] = regs[in.b] + regs[in.c]
			case opSubI:
				regs[in.a] = regs[in.b] - regs[in.c]
			case opMulI:
				regs[in.a] = regs[in.b] * regs[in.c]
			case opDivI:
				y := int64(regs[in.c])
				if y == 0 {
					c.pending, f.ip = pending, ip
					return lv.fail(c.vmErr(in.pc, "integer division by zero")), nops
				}
				regs[in.a] = uint64(int64(regs[in.b]) / y)

			case opAddF:
				regs[in.a] = w64(f64(regs[in.b]) + f64(regs[in.c]))
			case opSubF:
				regs[in.a] = w64(f64(regs[in.b]) - f64(regs[in.c]))
			case opMulF:
				regs[in.a] = w64(f64(regs[in.b]) * f64(regs[in.c]))
			case opDivF:
				regs[in.a] = w64(f64(regs[in.b]) / f64(regs[in.c]))

			case opEqI:
				regs[in.a] = b2w(regs[in.b] == regs[in.c])
			case opNeI:
				regs[in.a] = b2w(regs[in.b] != regs[in.c])
			case opLtI:
				regs[in.a] = b2w(int64(regs[in.b]) < int64(regs[in.c]))
			case opLeI:
				regs[in.a] = b2w(int64(regs[in.b]) <= int64(regs[in.c]))
			case opGtI:
				regs[in.a] = b2w(int64(regs[in.b]) > int64(regs[in.c]))
			case opGeI:
				regs[in.a] = b2w(int64(regs[in.b]) >= int64(regs[in.c]))
			case opEqF:
				regs[in.a] = b2w(feq(regs[in.b], regs[in.c]))
			case opNeF:
				regs[in.a] = b2w(!feq(regs[in.b], regs[in.c]))
			case opLtF:
				regs[in.a] = b2w(f64(regs[in.b]) < f64(regs[in.c]))
			case opLeF:
				regs[in.a] = b2w(!(f64(regs[in.b]) > f64(regs[in.c])))
			case opGtF:
				regs[in.a] = b2w(f64(regs[in.b]) > f64(regs[in.c]))
			case opGeF:
				regs[in.a] = b2w(!(f64(regs[in.b]) < f64(regs[in.c])))

			case opEqIJf:
				if regs[in.b] != regs[in.c] {
					ip = in.n
					continue
				}
			case opNeIJf:
				if regs[in.b] == regs[in.c] {
					ip = in.n
					continue
				}
			case opLtIJf:
				if int64(regs[in.b]) >= int64(regs[in.c]) {
					ip = in.n
					continue
				}
			case opLeIJf:
				if int64(regs[in.b]) > int64(regs[in.c]) {
					ip = in.n
					continue
				}
			case opGtIJf:
				if int64(regs[in.b]) <= int64(regs[in.c]) {
					ip = in.n
					continue
				}
			case opGeIJf:
				if int64(regs[in.b]) < int64(regs[in.c]) {
					ip = in.n
					continue
				}
			case opEqFJf:
				if !feq(regs[in.b], regs[in.c]) {
					ip = in.n
					continue
				}
			case opNeFJf:
				if feq(regs[in.b], regs[in.c]) {
					ip = in.n
					continue
				}
			case opLtFJf:
				if !(f64(regs[in.b]) < f64(regs[in.c])) {
					ip = in.n
					continue
				}
			case opLeFJf:
				if f64(regs[in.b]) > f64(regs[in.c]) {
					ip = in.n
					continue
				}
			case opGtFJf:
				if !(f64(regs[in.b]) > f64(regs[in.c])) {
					ip = in.n
					continue
				}
			case opGeFJf:
				if f64(regs[in.b]) < f64(regs[in.c]) {
					ip = in.n
					continue
				}

			case opBuiltin:
				c.vmBuiltin(in, regs)

			case opDyn:
				if msg := vmDyn(in, regs); msg != "" {
					c.pending, f.ip = pending, ip
					return lv.fail(c.vmErr(in.pc, "%s", msg)), nops
				}

			case opForPrep:
				p := in.aux.(*forPayload)
				st := int64(1)
				if p.step >= 0 {
					st = int64(regs[p.step])
				}
				if st == 0 {
					c.pending, f.ip = pending, ip
					return lv.fail(c.vmErr(in.pc, "for %s: zero step", p.varName)), nops
				}
				regs[p.base] = regs[p.from]
				regs[p.base+1] = regs[p.to]
				regs[p.base+2] = uint64(st)

			case opForCheck:
				last, trips := forLast(int64(regs[in.a]), int64(regs[in.a+1]), int64(regs[in.a+2]))
				if !trips {
					ip = in.n
					continue
				}
				regs[in.a+1] = uint64(last)
				regs[in.b] = regs[in.a]

			case opForNext:
				if i := regs[in.a]; i != regs[in.a+1] {
					i += regs[in.a+2]
					regs[in.a] = i
					regs[in.b] = i
					ip = in.n + 1 // skip the entry check, straight to the body
					continue
				}
				// Loop finished: fall through to the exit label bound just after.

			case opAllocArr:
				p := in.aux.(*allocPayload)
				pa := &f.fr.arrays[p.arr]
				if cap(pa.cache) >= p.size {
					pa.data = pa.cache[:p.size]
					clear(pa.data) // both types' zero
				} else {
					pa.data = make([]uint64, p.size)
					pa.cache = pa.data
				}

			case opArrNil:
				if f.fr.arrays[in.a].data == nil {
					c.pending, f.ip = pending, ip
					return lv.fail(c.vmErr(in.pc, "%s", in.aux.(*failPayload).msg)), nops
				}

			case opBounds:
				if ix := int(int64(regs[in.b])); ix < 0 || ix >= int(in.n) {
					bp := in.aux.(*boundsPayload)
					c.pending, f.ip = pending, ip
					return lv.fail(c.vmErr(in.pc, "%s: index %d out of range [0,%d) in dimension %d", bp.name, ix, int(in.n), bp.dim)), nops
				}

			case opFail:
				c.pending, f.ip = pending, ip
				return lv.fail(c.vmErr(in.pc, "%s", in.aux.(*failPayload).msg)), nops

			case opDivGuard:
				if regs[in.b] == 0 {
					c.pending, f.ip = pending, ip
					return lv.fail(c.vmErr(in.pc, "integer division by zero in /=")), nops
				}

			case opLoadArr, opAsgArr:
				ma := in.aux.(*memAccess)
				if w := pending + ma.work; w < WorkFlushLimit {
					// The usual case, inline: no charge of the walk can flush.
					if off, ok := ma.offset(regs); ok {
						pending = w
						c.privTouch(in, ma, &f.fr.arrays[ma.arr], regs, off)
						break
					}
				}
				c.pending, f.ip = pending, ip
				st = lv.privAccess(in, f, regs, phStart)
				pending = c.pending
				if st != stepAdvance {
					break dispatch
				}

			case opLoadShared:
				c.pending, f.ip = pending, ip
				st = lv.loadShared(in, regs, phStart)
				pending = c.pending
				if st != stepAdvance {
					break dispatch
				}

			case opAsgShared:
				c.pending, f.ip = pending, ip
				st = lv.asgShared(in, regs, phStart)
				pending = c.pending
				if st != stepAdvance {
					break dispatch
				}

			case opBarrier, opLock, opUnlock, opPrint, opDirEmit, opDirNil:
				c.pending, f.ip = pending, ip
				st = lv.machineCall(in, regs, phStart)
				pending = c.pending
				if st != stepAdvance {
					break dispatch
				}

			case opDirBegin:
				c.dirLos = c.dirLos[:0]
				c.dirHis = c.dirHis[:0]

			case opDirDim:
				p := in.aux.(*dirPayload)
				lo := int(int64(regs[in.a]))
				hi := lo
				if in.b >= 0 {
					hi = int(int64(regs[in.b]))
				}
				lo = max(lo, 0)
				hi = min(hi, p.decl.DimSizes[in.c]-1)
				if lo > hi {
					ip = in.n // empty after clamping
					continue
				}
				c.dirLos = append(c.dirLos, lo)
				c.dirHis = append(c.dirHis, hi)

			case opCall:
				c.pending, f.ip = pending, ip
				st = lv.call(in, regs, phStart)
				break dispatch

			case opRet:
				c.pending, f.ip = pending, ip
				st = lv.ret(in, f)
				break dispatch

			default:
				c.pending, f.ip = pending, ip
				return lv.fail(c.vmErr(in.pc, "vm: bad opcode %d", in.op)), nops
			}
			ip++
		}
		// A handler left the loop; f.ip and c.pending are current.
		switch st {
		case stepSuspend:
			return LaneSuspended, nops
		case stepAdvanceSuspend:
			f.ip++
			return LaneSuspended, nops
		case stepErr:
			return lv.fail(lv.err), nops
		case stepDone:
			lv.done = true
			return LaneDone, nops
		}
		// stepFrame: the call stack changed; dispatch in the new top frame.
	}
}

func b2w(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
