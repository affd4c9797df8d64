package interp

import (
	"fmt"
	"math"

	"cachier/internal/parc"
)

// vmFrame is one compiled-function activation: registers (the first
// fn.NumScalars are the checker's scalar slots, the constant pool and
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

// release returns a frame to its pool. Only the named-scalar prefix is
// cleared: constant-pool registers keep their
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
