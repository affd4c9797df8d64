package interp

import (
	"fmt"
	"math"

	"cachier/internal/parc"
)

// vmFrame is one compiled-function activation: registers (the first
// fn.NumScalars are the checker's scalar slots, synthetic counters and
// temporaries follow) and private array storage. Frames are pooled
// per-function on the Context, and released arrays keep their backing
// slice, so steady-state execution allocates nothing.
type vmFrame struct {
	regs   []Value
	arrays []privArray
}

func (c *Context) acquire(co *fnCode) *vmFrame {
	pool := &c.pools[co.idx]
	if n := len(*pool); n > 0 {
		fr := (*pool)[n-1]
		*pool = (*pool)[:n-1]
		return fr
	}
	fr := &vmFrame{
		regs:   make([]Value, co.nregs),
		arrays: make([]privArray, co.narrs),
	}
	copy(fr.regs[co.poolBase:], co.poolVals)
	return fr
}

// release returns a frame to its pool. Only the named-scalar and
// synthetic-counter prefix is cleared: constant-pool registers keep their
// values (they are never written after acquire), and temporaries are always
// written before they are read.
func (c *Context) release(co *fnCode, fr *vmFrame) {
	clear(fr.regs[:co.clearRegs])
	for i := range fr.arrays {
		fr.arrays[i].data = nil // keep cache capacity for the next activation
	}
	c.pools[co.idx] = append(c.pools[co.idx], fr)
}

// vmErr builds a RuntimeError at the given statement ID, recovering the
// source position the tree-walker would have had in curPos.
func (c *Context) vmErr(pc int32, format string, args ...any) error {
	var pos parc.Pos
	if s := c.prog.Stmts[int(pc)]; s != nil {
		pos = s.Position()
	}
	return &RuntimeError{Node: c.node, Pos: pos, PC: int(pc), Msg: fmt.Sprintf(format, args...)}
}

// chargeUnits replays n unit work charges, flushing at exactly the same
// boundary the tree-walker's per-unit work(1) calls would: pending crosses
// the limit one unit at a time, so every flush reports exactly
// workFlushLimit cycles.
func (c *Context) chargeUnits(n uint16) {
	tot := c.pending + uint64(n)
	for tot >= workFlushLimit {
		c.mach.Work(c.node, workFlushLimit)
		tot -= workFlushLimit
	}
	c.pending = tot
}

// memOff computes a memory access's flattened element offset, replaying the
// per-subscript work charges and bounds checks that were folded into the
// access op in exactly the tree-walker's order: for each term, its pending
// unit charges, then the index read, then the check; charges that followed
// the last folded check (constant subscripts) come after all checks.
// Callers handle the zero-term case inline; the single-subscript form —
// the bulk of array traffic — avoids the loop entirely.
func (c *Context) memOff(ma *memAccess, regs []Value, pc int32) (int64, error) {
	if len(ma.terms) == 1 {
		t := &ma.terms[0]
		if t.nwork != 0 {
			if tot := c.pending + uint64(t.nwork); tot < workFlushLimit {
				c.pending = tot
			} else {
				c.chargeUnits(t.nwork)
			}
		}
		ix := regs[t.reg].AsInt()
		if t.size > 0 && uint64(ix) >= uint64(t.size) {
			return 0, c.boundsErr(ma, t, ix, pc)
		}
		if ma.postWork != 0 {
			if tot := c.pending + uint64(ma.postWork); tot < workFlushLimit {
				c.pending = tot
			} else {
				c.chargeUnits(ma.postWork)
			}
		}
		return ma.constOff + ix*t.stride, nil
	}
	off := ma.constOff
	for i := range ma.terms {
		t := &ma.terms[i]
		if t.nwork != 0 {
			c.chargeUnits(t.nwork)
		}
		ix := regs[t.reg].AsInt()
		if t.size > 0 && uint64(ix) >= uint64(t.size) {
			return 0, c.boundsErr(ma, t, ix, pc)
		}
		off += ix * t.stride
	}
	if ma.postWork != 0 {
		c.chargeUnits(ma.postWork)
	}
	return off, nil
}

func (c *Context) boundsErr(ma *memAccess, t *idxTerm, ix int64, pc int32) error {
	return c.vmErr(pc, "%s: index %d out of range [0,%d) in dimension %d", ma.name, ix, t.size, t.dim)
}

// callCompiled invokes a compiled function, coercing arguments from the
// caller's registers per the parameter types.
func (c *Context) callCompiled(pc int32, p *callPayload, caller []Value) (Value, error) {
	co := p.code
	if c.depth >= maxCallDepth {
		return Value{}, c.vmErr(pc, "call depth exceeds %d (runaway recursion in %s?)", maxCallDepth, co.fn.Name)
	}
	c.depth++
	fr := c.acquire(co)
	for i := range co.fn.Params {
		fr.regs[i] = coerce(caller[p.args[i]], co.fn.Params[i].Base)
	}
	v, err := c.exec(co, fr)
	c.depth--
	if err != nil {
		return Value{}, err
	}
	c.release(co, fr)
	if co.fn.Result != nil {
		return coerce(v, *co.fn.Result), nil
	}
	return Value{}, nil
}

// runVM executes main through the compiled program. The caller has already
// verified that main compiled.
func (c *Context) runVM(pcm *progCode, main *fnCode) error {
	if c.pools == nil || len(c.pools) < pcm.nfns {
		c.pools = make([][]*vmFrame, pcm.nfns)
	}
	c.depth++
	fr := c.acquire(main)
	_, err := c.exec(main, fr)
	c.depth--
	if err != nil {
		return err
	}
	c.release(main, fr)
	c.flush()
	return nil
}

// exec is the VM dispatch loop. It mirrors the tree-walker's observable
// behaviour exactly; see the contract at the top of compile.go.
func (c *Context) exec(co *fnCode, fr *vmFrame) (Value, error) {
	ins := co.ins
	regs := fr.regs
	ip := 0
	// Dispatched-op counting for the observability layer: accumulate into a
	// local so the hot loop pays one register increment when enabled and a
	// single predictable untaken branch when disabled, folding into the
	// context only once per activation (the deferred add also covers every
	// error return).
	count := c.countOps
	var nops uint64
	if count {
		defer func() { c.ops += nops }()
	}
	for {
		in := &ins[ip]
		if count {
			nops++
		}
		if in.nwork != 0 {
			// Inlined chargeUnits fast path: stay below the flush limit.
			if tot := c.pending + uint64(in.nwork); tot < workFlushLimit {
				c.pending = tot
			} else {
				c.chargeUnits(in.nwork)
			}
		}
		switch in.op {
		case opNop:

		case opConst:
			regs[in.a] = in.imm

		case opCoerce:
			regs[in.a] = coerce(regs[in.b], parc.BaseType(in.n))

		case opJump:
			ip = int(in.n)
			continue

		case opJz:
			if !regs[in.a].Truthy() {
				ip = int(in.n)
				continue
			}

		case opSCAnd:
			if !regs[in.b].Truthy() {
				regs[in.a] = IntVal(0)
				ip = int(in.n)
				continue
			}

		case opSCOr:
			if regs[in.b].Truthy() {
				regs[in.a] = IntVal(1)
				ip = int(in.n)
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
				return Value{}, c.vmErr(in.pc, "integer division by zero")
			} else {
				regs[in.a] = IntVal(x.I / y.I)
			}

		case opMod:
			x, y := regs[in.b], regs[in.c]
			if x.Float || y.Float {
				return Value{}, c.vmErr(in.pc, "%% requires integer operands")
			}
			if y.I == 0 {
				return Value{}, c.vmErr(in.pc, "integer modulo by zero")
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
				ip = int(in.n)
				continue
			}
		case opNeJf:
			if compare(regs[in.b], regs[in.c]) == 0 {
				ip = int(in.n)
				continue
			}
		case opLtJf:
			if compare(regs[in.b], regs[in.c]) >= 0 {
				ip = int(in.n)
				continue
			}
		case opLeJf:
			if compare(regs[in.b], regs[in.c]) > 0 {
				ip = int(in.n)
				continue
			}
		case opGtJf:
			if compare(regs[in.b], regs[in.c]) <= 0 {
				ip = int(in.n)
				continue
			}
		case opGeJf:
			if compare(regs[in.b], regs[in.c]) < 0 {
				ip = int(in.n)
				continue
			}

		case opBuiltin:
			v, err := c.vmBuiltin(in, regs)
			if err != nil {
				return Value{}, err
			}
			regs[in.a] = v

		case opCall:
			p := in.aux.(*callPayload)
			c.work(2)
			if p.code != nil {
				v, err := c.callCompiled(in.pc, p, regs)
				if err != nil {
					return Value{}, err
				}
				regs[in.a] = v
			} else {
				// Callee did not compile: run it on the tree-walker.
				c.curPC = int(in.pc)
				if s := c.prog.Stmts[int(in.pc)]; s != nil {
					c.curPos = s.Position()
				} else {
					c.curPos = parc.Pos{}
				}
				args := make([]Value, len(p.args))
				for i, r := range p.args {
					args[i] = regs[r]
				}
				v, err := c.call(p.fn, args)
				if err != nil {
					return Value{}, err
				}
				regs[in.a] = v
			}

		case opRet:
			if in.a >= 0 {
				return regs[in.a], nil
			}
			return Value{}, nil

		case opForPrep:
			p := in.aux.(*forPayload)
			st := int64(1)
			if p.step >= 0 {
				st = regs[p.step].AsInt()
			}
			if st == 0 {
				return Value{}, c.vmErr(in.pc, "for %s: zero step", p.varName)
			}
			regs[p.base] = IntVal(regs[p.from].AsInt())
			regs[p.base+1] = IntVal(regs[p.to].AsInt())
			regs[p.base+2] = IntVal(st)

		case opForCheck:
			i, hi, st := regs[in.a].I, regs[in.a+1].I, regs[in.a+2].I
			if (st > 0 && i <= hi) || (st < 0 && i >= hi) {
				regs[in.b] = IntVal(i)
			} else {
				ip = int(in.n)
				continue
			}

		case opForNext:
			st := regs[in.a+2].I
			i := regs[in.a].I + st
			regs[in.a].I = i
			if (st > 0 && i <= regs[in.a+1].I) || (st < 0 && i >= regs[in.a+1].I) {
				regs[in.b] = IntVal(i)
				ip = int(in.n) + 1 // skip the entry check, straight to the body
				continue
			}
			// Loop finished: fall through to the exit label bound just after.

		case opAllocArr:
			p := in.aux.(*allocPayload)
			pa := &fr.arrays[p.arr]
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
			if fr.arrays[in.a].data == nil {
				return Value{}, c.vmErr(in.pc, "%s", in.aux.(*failPayload).msg)
			}

		case opBounds:
			ix := int(regs[in.b].AsInt())
			if ix < 0 || ix >= int(in.n) {
				bp := in.aux.(*boundsPayload)
				return Value{}, c.vmErr(in.pc, "%s: index %d out of range [0,%d) in dimension %d", bp.name, ix, int(in.n), bp.dim)
			}

		case opFail:
			return Value{}, c.vmErr(in.pc, "%s", in.aux.(*failPayload).msg)

		case opDivGuardReg:
			if rhs := regs[in.b]; !rhs.Float && rhs.I == 0 && !regs[in.a].Float {
				return Value{}, c.vmErr(in.pc, "integer division by zero in /=")
			}

		case opDivGuardInt:
			if rhs := regs[in.b]; !rhs.Float && rhs.I == 0 {
				return Value{}, c.vmErr(in.pc, "integer division by zero in /=")
			}

		case opAsgLocal:
			cur := regs[in.a]
			regs[in.a] = applyOp(cur, parc.AssignOp(in.n), regs[in.b], cur.Float)

		case opLoadArr:
			ma := in.aux.(*memAccess)
			off, err := c.memOff(ma, regs, in.pc)
			if err != nil {
				return Value{}, err
			}
			c.privReads++
			regs[in.a] = fr.arrays[ma.arr].data[off]

		case opAsgArr:
			ma := in.aux.(*memAccess)
			off, err := c.memOff(ma, regs, in.pc)
			if err != nil {
				return Value{}, err
			}
			pa := &fr.arrays[ma.arr]
			if ma.assignOp != parc.OpSet {
				c.privReads++
			}
			c.privWrites++
			pa.data[off] = applyOp(pa.data[off], ma.assignOp, regs[in.b], ma.isFloat)

		case opLoadShared:
			ma := in.aux.(*memAccess)
			off := ma.constOff
			if ma.terms != nil {
				var err error
				if off, err = c.memOff(ma, regs, in.pc); err != nil {
					return Value{}, err
				}
			}
			addr := c.bases[ma.decl.Index] + uint64(off)*parc.ElemSize
			c.flush()
			c.mach.Access(c.node, false, addr, int(in.pc))
			regs[in.a] = FromBits(c.memLoad(addr), ma.isFloat)

		case opAsgShared:
			ma := in.aux.(*memAccess)
			off := ma.constOff
			if ma.terms != nil {
				var err error
				if off, err = c.memOff(ma, regs, in.pc); err != nil {
					return Value{}, err
				}
			}
			addr := c.bases[ma.decl.Index] + uint64(off)*parc.ElemSize
			var cur Value
			if ma.assignOp != parc.OpSet {
				// Compound assignment reads the old value first.
				c.flush()
				c.mach.Access(c.node, false, addr, int(in.pc))
				cur = FromBits(c.memLoad(addr), ma.isFloat)
			}
			out := applyOp(cur, ma.assignOp, regs[in.b], ma.isFloat)
			c.flush()
			c.mach.Access(c.node, true, addr, int(in.pc))
			c.memStore(addr, out.Bits())

		case opBarrier:
			c.flush()
			c.mach.Barrier(c.node, int(in.pc))

		case opLock:
			c.flush()
			c.mach.Lock(c.node, regs[in.a].AsInt(), int(in.pc))

		case opUnlock:
			c.flush()
			c.mach.Unlock(c.node, regs[in.a].AsInt(), int(in.pc))

		case opPrint:
			p := in.aux.(*printPayload)
			vals := c.printBuf[:0]
			for _, r := range p.args {
				vals = append(vals, regs[r])
			}
			c.printBuf = vals
			text := formatPrint(p.format, vals)
			c.flush()
			c.mach.Print(c.node, text)

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
				ip = int(in.n) // empty after clamping
				continue
			}
			c.dirLos = append(c.dirLos, lo)
			c.dirHis = append(c.dirHis, hi)

		case opDirEmit:
			p := in.aux.(*dirPayload)
			ranges := c.expandRanges(p.decl)
			c.flush()
			c.mach.Directive(c.node, p.kind, ranges, int(in.pc))

		case opDirNil:
			p := in.aux.(*dirPayload)
			c.flush()
			c.mach.Directive(c.node, p.kind, nil, int(in.pc))

		default:
			return Value{}, c.vmErr(in.pc, "vm: bad opcode %d", in.op)
		}
		ip++
	}
}

// expandRanges builds the contiguous address ranges for a directive from
// the clamped per-dimension bounds in dirLos/dirHis, reusing the Context's
// scratch buffer; the Machine contract says ranges are only valid for the
// duration of the Directive call.
func (c *Context) expandRanges(decl *parc.SharedDecl) []AddrRange {
	base := c.bases[decl.Index]
	if len(decl.DimSizes) == 0 {
		c.rangeBuf = append(c.rangeBuf[:0], AddrRange{Lo: base, Hi: base})
		return c.rangeBuf
	}
	los, his := c.dirLos, c.dirHis
	out := c.rangeBuf[:0]
	if cap(c.dirIdx) < len(los) {
		c.dirIdx = make([]int, len(los))
	}
	idx := c.dirIdx[:len(los)]
	copy(idx, los)
	last := len(los) - 1
	for {
		off := 0
		for d := 0; d < last; d++ {
			off = off*decl.DimSizes[d] + idx[d]
		}
		loOff := off*decl.DimSizes[last] + los[last]
		hiOff := off*decl.DimSizes[last] + his[last]
		out = append(out, AddrRange{
			Lo: base + uint64(loOff)*parc.ElemSize,
			Hi: base + uint64(hiOff)*parc.ElemSize,
		})
		d := last - 1
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] <= his[d] {
				break
			}
			idx[d] = los[d]
		}
		if d < 0 {
			break
		}
	}
	c.rangeBuf = out
	return out
}

// vmBuiltin executes a builtin call; semantics are byte-for-byte those of
// the tree-walker's evalBuiltin (min/max return their argument unchanged,
// the rnd stream advances identically).
func (c *Context) vmBuiltin(in *instr, regs []Value) (Value, error) {
	switch parc.BuiltinID(in.n) {
	case parc.BuiltinPid:
		return IntVal(int64(c.node)), nil
	case parc.BuiltinNprocs:
		return IntVal(int64(c.nprocs)), nil
	case parc.BuiltinMin:
		x, y := regs[in.b], regs[in.c]
		if compare(x, y) <= 0 {
			return x, nil
		}
		return y, nil
	case parc.BuiltinMax:
		x, y := regs[in.b], regs[in.c]
		if compare(x, y) >= 0 {
			return x, nil
		}
		return y, nil
	case parc.BuiltinAbs:
		x := regs[in.b]
		if x.Float {
			return FloatVal(math.Abs(x.F)), nil
		}
		if x.I < 0 {
			return IntVal(-x.I), nil
		}
		return x, nil
	case parc.BuiltinSqrt:
		return FloatVal(math.Sqrt(regs[in.b].AsFloat())), nil
	case parc.BuiltinSin:
		return FloatVal(math.Sin(regs[in.b].AsFloat())), nil
	case parc.BuiltinCos:
		return FloatVal(math.Cos(regs[in.b].AsFloat())), nil
	case parc.BuiltinFloor:
		return FloatVal(math.Floor(regs[in.b].AsFloat())), nil
	case parc.BuiltinFloat:
		return FloatVal(regs[in.b].AsFloat()), nil
	case parc.BuiltinInt:
		return IntVal(regs[in.b].AsInt()), nil
	case parc.BuiltinRnd:
		c.rng = c.rng*6364136223846793005 + 1442695040888963407
		return FloatVal(float64(c.rng>>11) / (1 << 53)), nil
	case parc.BuiltinRndseed:
		c.rng = uint64(regs[in.b].AsInt())*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
		return IntVal(0), nil
	}
	return Value{}, c.vmErr(in.pc, "unknown builtin")
}
