package interp

import (
	"fmt"
	"math"

	"cachier/internal/parc"
)

// vmFrame is one compiled-function activation: registers (the first
// len(fn.Scalars) are the checker's scalar slots, the constant pool and
// temporaries follow), each an 8-byte word whose type the compiler knows,
// and private array storage. Frames are pooled per-function on the Context,
// and released arrays keep their backing slice, so steady-state execution
// allocates nothing.
type vmFrame struct {
	regs   []uint64
	arrays []vmArray
}

// vmArray is a private array in a frame: data is nil until its declaration
// executes in this activation; cache keeps the backing slice across frame
// reuse so re-executed declarations allocate only on first use.
type vmArray struct {
	data, cache []uint64
}

func (c *Context) acquire(co *fnCode) *vmFrame {
	pool := &c.pools[co.idx]
	if n := len(*pool); n > 0 {
		fr := (*pool)[n-1]
		*pool = (*pool)[:n-1]
		return fr
	}
	fr := &vmFrame{
		regs:   make([]uint64, co.nregs),
		arrays: make([]vmArray, co.narrs),
	}
	copy(fr.regs[co.poolBase:], co.poolVals)
	return fr
}

// release returns a frame to its pool. Only the named-scalar prefix is
// cleared, to the zero word every type shares: constant-pool registers keep
// their values (they are never written after acquire), and temporaries are
// always written before they are read.
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
	if s := c.prog.Stmt(int(pc)); s != nil {
		pos = s.Position()
	}
	return &RuntimeError{Node: c.node, Pos: pos, PC: int(pc), Msg: fmt.Sprintf(format, args...)}
}

func (c *Context) boundsErr(ma *memAccess, t *idxTerm, ix int64, pc int32) error {
	return c.vmErr(pc, "%s: index %d out of range [0,%d) in dimension %d", ma.name, ix, t.size, t.dim)
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

func f64(w uint64) float64 { return math.Float64frombits(w) }
func w64(f float64) uint64 { return math.Float64bits(f) }

// feq is compare(x, y) == 0 on floats: NaN equals everything.
func feq(x, y uint64) bool { a, b := f64(x), f64(y); return !(a < b || a > b) }

// vmBuiltin executes a builtin on typed registers; semantics are those of
// the tree-walker's evalBuiltin (min and max return the winning argument's
// word unchanged, the rnd stream advances identically).
func (c *Context) vmBuiltin(in *instr, regs []uint64) {
	var w uint64
	switch in.n {
	case vbPid:
		w = uint64(c.node)
	case vbNprocs:
		w = uint64(c.nprocs)
	case vbMinI:
		if x, y := int64(regs[in.b]), int64(regs[in.c]); x <= y {
			w = uint64(x)
		} else {
			w = uint64(y)
		}
	case vbMaxI:
		if x, y := int64(regs[in.b]), int64(regs[in.c]); x >= y {
			w = uint64(x)
		} else {
			w = uint64(y)
		}
	case vbMinF:
		if w = regs[in.b]; f64(w) > f64(regs[in.c]) {
			w = regs[in.c]
		}
	case vbMaxF:
		if w = regs[in.b]; f64(w) < f64(regs[in.c]) {
			w = regs[in.c]
		}
	case vbAbsI:
		if w = regs[in.b]; int64(w) < 0 {
			w = -w
		}
	case vbAbsF:
		w = w64(math.Abs(f64(regs[in.b])))
	case vbSqrt:
		w = w64(math.Sqrt(f64(regs[in.b])))
	case vbSin:
		w = w64(math.Sin(f64(regs[in.b])))
	case vbCos:
		w = w64(math.Cos(f64(regs[in.b])))
	case vbFloor:
		w = w64(math.Floor(f64(regs[in.b])))
	case vbRnd:
		c.rng = c.rng*6364136223846793005 + 1442695040888963407
		w = w64(float64(c.rng>>11) / (1 << 53))
	case vbRndseed:
		c.rng = regs[in.b]*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	}
	regs[in.a] = w
}

// regValue reads register r, of kind k, as the tree-walker's Value.
func regValue(regs []uint64, r int32, k kind) Value {
	switch k {
	case kFloat:
		return FloatVal(f64(regs[r]))
	case kDyn:
		return FromBits(regs[r], regs[r+1] != 0)
	}
	return IntVal(int64(regs[r]))
}

// vmDyn executes an opDyn: the operation on Values, whose types are known
// only now; msg is the runtime error's text when it fails.
func vmDyn(in *instr, regs []uint64) (msg string) {
	p := in.aux.(*dynPayload)
	x := regValue(regs, in.b, p.xk)
	var y, v Value
	switch p.op {
	case dynBinary, dynMin, dynMax, dynAssign:
		y = regValue(regs, in.c, p.yk)
	}
	switch p.op {
	case dynBinary:
		if v, msg = binaryOp(p.tok, x, y); msg != "" {
			return msg
		}
	case dynNeg:
		v = negValue(x)
	case dynTruthy:
		v = boolVal(x.Truthy())
	case dynMin:
		v = minValue(x, y)
	case dynMax:
		v = maxValue(x, y)
	case dynAbs:
		v = absValue(x)
	case dynAssign:
		v = applyOp(x, p.asg, y, false)
	case dynDivGuard:
		if !x.Float && x.I == 0 {
			return "integer division by zero in /="
		}
		return ""
	}
	regs[in.a] = v.Bits()
	if p.dk == kDyn {
		regs[in.a+1] = b2w(v.Float)
	}
	return ""
}

// apply combines an element word with an assignment's right-hand side in
// regs[rb] as ma.asg says; the tree-walker's applyOp does the same on
// Values.
func (ma *memAccess) apply(cur uint64, regs []uint64, rb int32) uint64 {
	rhs := regs[rb]
	switch ma.asg {
	case asgAddI:
		return cur + rhs
	case asgSubI:
		return cur - rhs
	case asgMulI:
		return uint64(int64(cur) * int64(rhs))
	case asgDivI:
		if rhs == 0 {
			return 0 // the /= guard has already failed the program
		}
		return uint64(int64(cur) / int64(rhs))
	case asgAddF:
		return w64(f64(cur) + f64(rhs))
	case asgSubF:
		return w64(f64(cur) - f64(rhs))
	case asgMulF:
		return w64(f64(cur) * f64(rhs))
	case asgDivF:
		return w64(f64(cur) / f64(rhs))
	case asgAddX:
		return uint64(int64(float64(int64(cur)) + f64(rhs)))
	case asgSubX:
		return uint64(int64(float64(int64(cur)) - f64(rhs)))
	case asgMulX:
		return uint64(int64(float64(int64(cur)) * f64(rhs)))
	case asgDivX:
		return uint64(int64(float64(int64(cur)) / f64(rhs)))
	case asgDyn:
		return applyOp(IntVal(int64(cur)), ma.assignOp, regValue(regs, rb, kDyn), false).Bits()
	}
	return rhs
}

// offset computes the access's flattened element offset in one go, for
// when the walk's charges cannot reach the flush limit; false if a bounds
// check fails, which the phased walk (LaneVM.memWalk) then reports with the
// charges it had made by then.
func (ma *memAccess) offset(regs []uint64) (int64, bool) {
	off := ma.constOff
	for i := range ma.terms {
		t := &ma.terms[i]
		ix := int64(regs[t.reg])
		if t.size > 0 && uint64(ix) >= uint64(t.size) {
			return 0, false
		}
		off += ix * t.stride
	}
	return off, true
}
