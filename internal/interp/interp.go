package interp

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"cachier/internal/parc"
)

// Context executes one simulated processor's SPMD instance of a ParC
// program.
type Context struct {
	prog   *parc.Program
	store  *Store
	bases  []uint64 // base address per parc.SharedDecl.Index; the store's table
	mach   Machine
	node   int
	nprocs int

	rng     uint64
	pending uint64 // unreported local work cycles
	curPC   int    // statement ID currently executing (trace PC)
	curPos  parc.Pos
	depth   int // call depth, to catch runaway recursion

	privReads  uint64 // private-array loads (for sharing-degree statistics)
	privWrites uint64 // private-array stores

	// countOps enables the dispatched-op counter for the observability
	// layer. Off by default so the measured path pays only an untaken
	// branch per dispatch; see CountOps.
	countOps bool
	ops      uint64

	// Bytecode engine state (lane.go, vm.go). The tree-walker below stays
	// the reference implementation (TreeLane).
	pools    [][]*vmFrame // per-function frame free-lists
	printBuf []Value      // print argument scratch
	rangeBuf []AddrRange  // directive range scratch (valid during the call only)
	dirLos   []int        // directive per-dimension clamped bounds
	dirHis   []int
	dirIdx   []int // cartesian walk scratch
}

// PrivateAccesses returns how many private-array loads and stores this
// context performed; the simulator uses them to compute sharing degrees
// comparable to the SPLASH numbers quoted in the paper's Section 6.
func (c *Context) PrivateAccesses() (reads, writes uint64) {
	return c.privReads, c.privWrites
}

// CountOps enables the dispatched-op counter: VM instructions retired, or
// statements executed on the tree-walking reference. The simulator turns
// it on when an obs.Recorder is attached; counting never affects execution.
func (c *Context) CountOps(on bool) { c.countOps = on }

// OpsDispatched returns the dispatched-op count accumulated since CountOps
// was enabled.
func (c *Context) OpsDispatched() uint64 { return c.ops }

// maxCallDepth bounds recursion; ParC benchmarks are loop-based, so any
// deep recursion is almost certainly a bug in the program under test.
const maxCallDepth = 10_000

var errNoMain = errors.New("interp: program has no main")

// NewContext builds an execution context for one processor.
func NewContext(prog *parc.Program, store *Store, mach Machine, node, nprocs int) *Context {
	bases := store.bases
	if bases == nil {
		// A store made from a bare size has no layout; pack the variables.
		bases = make([]uint64, len(prog.Shareds))
		var next uint64
		for i, d := range prog.Shareds {
			bases[i] = next
			next += uint64(d.Size) * parc.ElemSize
		}
	}
	return &Context{
		prog:   prog,
		store:  store,
		bases:  bases,
		mach:   mach,
		node:   node,
		nprocs: nprocs,
		rng:    uint64(node)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03,
	}
}

// Run executes main to completion, flushing any residual work. Programs are
// compiled to bytecode once (cached on the Program itself) and run on the
// lane VM without a yielder, so it never suspends. The program must be
// checked: a program the compiler refuses is an error.
func (c *Context) Run() error {
	lv, err := c.NewLaneVM(nil)
	if err != nil {
		return err
	}
	return lv.RunToCompletion()
}

// runTree executes main to completion on the reference tree-walking
// interpreter, flushing any residual work: the executable specification the
// lane VM is held to (FuzzVMEquivalence and the conformance corpus run the
// two differentially). Its only host is TreeLane.
func (c *Context) runTree() error {
	main := c.prog.FuncMap["main"]
	if main == nil {
		return errNoMain
	}
	if _, err := c.call(main, nil); err != nil {
		return err
	}
	c.flush()
	return nil
}

func (c *Context) errf(format string, args ...any) error {
	return &RuntimeError{Node: c.node, Pos: c.curPos, PC: c.curPC, Msg: fmt.Sprintf(format, args...)}
}

func (c *Context) work(n uint64) {
	c.pending += n
	if c.pending >= WorkFlushLimit {
		c.flush()
	}
}

func (c *Context) flush() {
	if c.pending > 0 {
		c.mach.Work(c.node, c.pending)
		c.pending = 0
	}
}

// frame is one function activation. Scalars and private arrays live in
// exact-size slices; the checker assigns every parameter, local, and loop
// variable a slot (parc.FuncDecl.Scalars/NumArrays), so every name
// reference is a single index. Locals are function-scoped and a slot holds
// its declared type for the whole activation: it starts as that type's zero,
// so a read before the declaration executes yields the typed zero rather
// than a runtime "undefined variable" error.
type frame struct {
	scalars []Value
	types   []parc.BaseType // the function's parc.FuncDecl.Scalars
	arrays  []privArray
}

type privArray struct {
	base parc.BaseType
	dims []int
	data []Value
}

type ctrl int

const (
	ctrlNext ctrl = iota
	ctrlReturn
)

func (c *Context) call(f *parc.FuncDecl, args []Value) (Value, error) {
	if c.depth >= maxCallDepth {
		return Value{}, c.errf("call depth exceeds %d (runaway recursion in %s?)", maxCallDepth, f.Name)
	}
	c.depth++
	defer func() { c.depth-- }()
	fr := &frame{scalars: make([]Value, len(f.Scalars)), types: f.Scalars, arrays: make([]privArray, f.NumArrays)}
	for i, b := range f.Scalars {
		var v Value // a local starts as its type's zero
		if i < len(args) {
			v = args[i]
		}
		fr.scalars[i] = coerce(v, b)
	}
	ct, v, err := c.execBlock(f.Body, fr)
	if err != nil {
		return Value{}, err
	}
	if ct == ctrlReturn {
		if f.Result != nil {
			return coerce(v, *f.Result), nil
		}
		return Value{}, nil
	}
	if f.Result != nil {
		// Falling off the end of a value-returning function yields the zero
		// value of the result type, as the checker cannot prove all paths
		// return.
		return coerce(Value{}, *f.Result), nil
	}
	return Value{}, nil
}

func (c *Context) execBlock(b *parc.Block, fr *frame) (ctrl, Value, error) {
	for _, s := range b.Stmts {
		ct, v, err := c.execStmt(s, fr)
		if err != nil || ct == ctrlReturn {
			return ct, v, err
		}
	}
	return ctrlNext, Value{}, nil
}

func (c *Context) execStmt(s parc.Stmt, fr *frame) (ctrl, Value, error) {
	c.curPC = s.ID()
	c.curPos = s.Position()
	c.work(1)
	if c.countOps {
		c.ops++
	}
	switch n := s.(type) {
	case *parc.Block:
		return c.execBlock(n, fr)

	case *parc.VarDeclStmt:
		if n.Slot == 0 {
			return ctrlNext, Value{}, c.errf("declaration of %q was not checked", n.Name)
		}
		if len(n.DimSizes) > 0 {
			size := 1
			for _, d := range n.DimSizes {
				size *= d
			}
			data := make([]Value, size)
			// Zero-initialize with typed zeros.
			zero := coerce(Value{}, n.Base)
			for i := range data {
				data[i] = zero
			}
			fr.arrays[n.Slot-1] = privArray{base: n.Base, dims: n.DimSizes, data: data}
			return ctrlNext, Value{}, nil
		}
		v := coerce(Value{}, n.Base)
		if n.Init != nil {
			iv, err := c.eval(n.Init, fr)
			if err != nil {
				return ctrlNext, Value{}, err
			}
			v = coerce(iv, n.Base)
		}
		fr.scalars[n.Slot-1] = v
		return ctrlNext, Value{}, nil

	case *parc.AssignStmt:
		return ctrlNext, Value{}, c.execAssign(n, fr)

	case *parc.IfStmt:
		cond, err := c.eval(n.Cond, fr)
		if err != nil {
			return ctrlNext, Value{}, err
		}
		if cond.Truthy() {
			return c.execBlock(n.Then, fr)
		}
		if n.Else != nil {
			return c.execStmt(n.Else, fr)
		}
		return ctrlNext, Value{}, nil

	case *parc.WhileStmt:
		for {
			c.curPC = n.ID()
			c.curPos = n.Position()
			cond, err := c.eval(n.Cond, fr)
			if err != nil {
				return ctrlNext, Value{}, err
			}
			if !cond.Truthy() {
				return ctrlNext, Value{}, nil
			}
			ct, v, err := c.execBlock(n.Body, fr)
			if err != nil || ct == ctrlReturn {
				return ct, v, err
			}
			c.work(1)
		}

	case *parc.ForStmt:
		from, err := c.eval(n.From, fr)
		if err != nil {
			return ctrlNext, Value{}, err
		}
		to, err := c.eval(n.To, fr)
		if err != nil {
			return ctrlNext, Value{}, err
		}
		step := int64(1)
		if n.Step != nil {
			sv, err := c.eval(n.Step, fr)
			if err != nil {
				return ctrlNext, Value{}, err
			}
			step = sv.AsInt()
		}
		if step == 0 {
			return ctrlNext, Value{}, c.errf("for %s: zero step", n.Var)
		}
		if n.VarSlot == 0 {
			return ctrlNext, Value{}, c.errf("loop counter %q has no slot", n.Var)
		}
		// The counter is an int; a counter slot declared float holds it
		// converted, like any other assignment to the slot.
		lo := from.AsInt()
		last, trips := forLast(lo, to.AsInt(), step)
		base := fr.types[n.VarSlot-1]
		for i := lo; trips; i += step {
			fr.scalars[n.VarSlot-1] = coerce(IntVal(i), base)
			ct, v, err := c.execBlock(n.Body, fr)
			if err != nil || ct == ctrlReturn {
				return ct, v, err
			}
			c.work(1)
			trips = i != last
		}
		return ctrlNext, Value{}, nil

	case *parc.BarrierStmt:
		c.flush()
		c.mach.Barrier(c.node, n.ID())
		return ctrlNext, Value{}, nil

	case *parc.LockStmt:
		id, err := c.eval(n.LockID, fr)
		if err != nil {
			return ctrlNext, Value{}, err
		}
		c.flush()
		c.mach.Lock(c.node, id.AsInt(), n.ID())
		return ctrlNext, Value{}, nil

	case *parc.UnlockStmt:
		id, err := c.eval(n.LockID, fr)
		if err != nil {
			return ctrlNext, Value{}, err
		}
		c.flush()
		c.mach.Unlock(c.node, id.AsInt(), n.ID())
		return ctrlNext, Value{}, nil

	case *parc.ReturnStmt:
		if n.Value != nil {
			v, err := c.eval(n.Value, fr)
			if err != nil {
				return ctrlNext, Value{}, err
			}
			return ctrlReturn, v, nil
		}
		return ctrlReturn, Value{}, nil

	case *parc.ExprStmt:
		_, err := c.eval(n.Call, fr)
		return ctrlNext, Value{}, err

	case *parc.PrintStmt:
		vals := make([]Value, len(n.Args))
		for i, a := range n.Args {
			v, err := c.eval(a, fr)
			if err != nil {
				return ctrlNext, Value{}, err
			}
			vals[i] = v
		}
		c.flush()
		c.mach.Print(c.node, formatPrint(n.Format, vals))
		return ctrlNext, Value{}, nil

	case *parc.CICOStmt:
		ranges, err := c.evalRangeRef(n.Target, fr)
		if err != nil {
			return ctrlNext, Value{}, err
		}
		c.flush()
		c.mach.Directive(c.node, n.Kind, ranges, n.ID())
		return ctrlNext, Value{}, nil

	case *parc.CommentStmt:
		return ctrlNext, Value{}, nil
	}
	return ctrlNext, Value{}, c.errf("cannot execute %T", s)
}

// forLast returns the last value a for loop's counter takes, stepping from
// from by step while it has not passed to, and false when the loop makes no
// trip. Both engines stop at it rather than test the counter against to
// after each step, which would wrap at the int64 edge; the trips it implies
// are analysis.TripCountBounds's wherever that is defined. A unit step, the
// common case, ends at to itself and needs no division.
func forLast(from, to, step int64) (int64, bool) {
	switch {
	case step > 0 && from <= to:
		if step == 1 {
			return to, true
		}
		d := uint64(to) - uint64(from)
		return int64(uint64(from) + d - d%uint64(step)), true
	case step < 0 && from >= to:
		if step == -1 {
			return to, true
		}
		d := uint64(from) - uint64(to)
		return int64(uint64(from) - (d - d%-uint64(step))), true
	}
	return 0, false
}

func (c *Context) execAssign(n *parc.AssignStmt, fr *frame) error {
	rhs, err := c.eval(n.RHS, fr)
	if err != nil {
		return err
	}
	lv := n.LHS
	if n.Op == parc.OpDiv && !rhs.Float && rhs.I == 0 {
		if !c.destIsFloat(lv, fr) {
			return c.errf("integer division by zero in /=")
		}
	}

	switch lv.Ref {
	case parc.RefLocal:
		// Private scalar (local, param, or loop variable).
		fr.scalars[lv.Slot] = applyOp(fr.scalars[lv.Slot], n.Op, rhs, fr.types[lv.Slot] == parc.FloatType)
		return nil

	case parc.RefArray:
		arr := &fr.arrays[lv.Slot]
		if arr.data == nil {
			return c.errf("undefined variable %q", lv.Name)
		}
		off, err := c.offset(lv.Name, arr.dims, lv.Indices, fr)
		if err != nil {
			return err
		}
		if n.Op != parc.OpSet {
			c.privReads++
		}
		c.privWrites++
		isFloat := arr.base == parc.FloatType
		arr.data[off] = applyOp(arr.data[off], n.Op, rhs, isFloat)
		return nil

	case parc.RefShared:
		addr, err := c.sharedAddr(lv.Shared, lv.Indices, fr)
		if err != nil {
			return err
		}
		isFloat := lv.Shared.Base == parc.FloatType
		var cur Value
		if n.Op != parc.OpSet {
			// Compound assignment reads the old value first.
			c.flush()
			c.mach.Access(c.node, false, addr, c.curPC)
			cur = FromBits(c.store.Load(addr), isFloat)
		}
		out := applyOp(cur, n.Op, rhs, isFloat)
		c.flush()
		c.mach.Access(c.node, true, addr, c.curPC)
		c.store.StoreWord(addr, out.Bits())
		return nil
	}
	return c.errf("assignment to %q was not checked", lv.Name)
}

// destIsFloat reports whether an lvalue's destination has float type, so
// compound division can distinguish IEEE division from integer division.
func (c *Context) destIsFloat(lv *parc.LValue, fr *frame) bool {
	switch lv.Ref {
	case parc.RefLocal:
		return fr.types[lv.Slot] == parc.FloatType
	case parc.RefArray:
		return fr.arrays[lv.Slot].base == parc.FloatType
	case parc.RefShared:
		return lv.Shared.Base == parc.FloatType
	}
	return false
}

// offset computes the flattened element offset of an index list against
// dims, charging work and bounds-checking.
func (c *Context) offset(name string, dims []int, indices []parc.Expr, fr *frame) (int, error) {
	off := 0
	for d, ixe := range indices {
		c.work(1)
		iv, err := c.eval(ixe, fr)
		if err != nil {
			return 0, err
		}
		ix := int(iv.AsInt())
		if ix < 0 || ix >= dims[d] {
			return 0, c.errf("%s: index %d out of range [0,%d) in dimension %d", name, ix, dims[d], d)
		}
		off = off*dims[d] + ix
	}
	return off, nil
}

func (c *Context) sharedAddr(decl *parc.SharedDecl, indices []parc.Expr, fr *frame) (uint64, error) {
	off, err := c.offset(decl.Name, decl.DimSizes, indices, fr)
	if err != nil {
		return 0, err
	}
	return c.bases[decl.Index] + uint64(off)*parc.ElemSize, nil
}

// loadShared performs a simulated shared read of one word.
func (c *Context) loadShared(addr uint64, base parc.BaseType) Value {
	c.flush()
	c.mach.Access(c.node, false, addr, c.curPC)
	return FromBits(c.store.Load(addr), base == parc.FloatType)
}

// evalPrivIndex reads an element of a private array slot.
func (c *Context) evalPrivIndex(name string, arr *privArray, indices []parc.Expr, fr *frame) (Value, error) {
	if arr.data == nil {
		// The declaration never executed (it sits in a branch this run
		// skipped); mirror the dynamic-resolution failure message.
		return Value{}, c.errf("%q is not an array", name)
	}
	off, err := c.offset(name, arr.dims, indices, fr)
	if err != nil {
		return Value{}, err
	}
	c.privReads++
	return arr.data[off], nil
}

// evalSharedIndex reads an element of a shared array.
func (c *Context) evalSharedIndex(decl *parc.SharedDecl, indices []parc.Expr, fr *frame) (Value, error) {
	addr, err := c.sharedAddr(decl, indices, fr)
	if err != nil {
		return Value{}, err
	}
	return c.loadShared(addr, decl.Base), nil
}

func (c *Context) eval(e parc.Expr, fr *frame) (Value, error) {
	switch n := e.(type) {
	case *parc.IntLit:
		return IntVal(n.Value), nil
	case *parc.FloatLit:
		return FloatVal(n.Value), nil

	case *parc.VarRef:
		switch n.Ref {
		case parc.RefLocal:
			return fr.scalars[n.Slot], nil
		case parc.RefConst:
			return IntVal(n.Const), nil
		case parc.RefShared:
			return c.loadShared(c.bases[n.Shared.Index], n.Shared.Base), nil
		}
		return Value{}, c.errf("reference to %q was not checked", n.Name)

	case *parc.IndexExpr:
		switch n.Ref {
		case parc.RefArray:
			return c.evalPrivIndex(n.Name, &fr.arrays[n.Slot], n.Indices, fr)
		case parc.RefShared:
			return c.evalSharedIndex(n.Shared, n.Indices, fr)
		}
		return Value{}, c.errf("reference to %q was not checked", n.Name)

	case *parc.CallExpr:
		if n.Builtin != parc.BuiltinNone {
			return c.evalBuiltin(n, fr)
		}
		if n.Fn == nil {
			return Value{}, c.errf("call to %q was not checked", n.Name)
		}
		args := make([]Value, len(n.Args))
		for i, a := range n.Args {
			v, err := c.eval(a, fr)
			if err != nil {
				return Value{}, err
			}
			args[i] = v
		}
		c.work(CallCharge)
		savedPC, savedPos := c.curPC, c.curPos
		v, err := c.call(n.Fn, args)
		c.curPC, c.curPos = savedPC, savedPos
		return v, err

	case *parc.UnaryExpr:
		x, err := c.eval(n.X, fr)
		if err != nil {
			return Value{}, err
		}
		c.work(1)
		switch n.Op {
		case parc.TokMinus:
			return negValue(x), nil
		case parc.TokNot:
			return boolVal(!x.Truthy()), nil
		}
		return Value{}, c.errf("bad unary operator")

	case *parc.BinaryExpr:
		return c.evalBinary(n, fr)
	}
	return Value{}, c.errf("cannot evaluate %T", e)
}

func (c *Context) evalBinary(n *parc.BinaryExpr, fr *frame) (Value, error) {
	// Short-circuit logical operators.
	if n.Op == parc.TokAndAnd || n.Op == parc.TokOrOr {
		x, err := c.eval(n.X, fr)
		if err != nil {
			return Value{}, err
		}
		c.work(1)
		if n.Op == parc.TokAndAnd && !x.Truthy() {
			return IntVal(0), nil
		}
		if n.Op == parc.TokOrOr && x.Truthy() {
			return IntVal(1), nil
		}
		y, err := c.eval(n.Y, fr)
		if err != nil {
			return Value{}, err
		}
		return boolVal(y.Truthy()), nil
	}

	x, err := c.eval(n.X, fr)
	if err != nil {
		return Value{}, err
	}
	y, err := c.eval(n.Y, fr)
	if err != nil {
		return Value{}, err
	}
	c.work(1)
	v, msg := binaryOp(n.Op, x, y)
	if msg != "" {
		return Value{}, c.errf("%s", msg)
	}
	return v, nil
}

func (c *Context) evalBuiltin(n *parc.CallExpr, fr *frame) (Value, error) {
	// Builtins take at most two arguments; keep them off the heap.
	var buf [2]Value
	args := buf[:]
	if len(n.Args) > len(buf) {
		args = make([]Value, len(n.Args))
	} else {
		args = buf[:len(n.Args)]
	}
	for i, a := range n.Args {
		v, err := c.eval(a, fr)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	c.work(1)
	switch n.Builtin {
	case parc.BuiltinPid:
		return IntVal(int64(c.node)), nil
	case parc.BuiltinNprocs:
		return IntVal(int64(c.nprocs)), nil
	case parc.BuiltinMin:
		return minValue(args[0], args[1]), nil
	case parc.BuiltinMax:
		return maxValue(args[0], args[1]), nil
	case parc.BuiltinAbs:
		return absValue(args[0]), nil
	case parc.BuiltinSqrt:
		return FloatVal(math.Sqrt(args[0].AsFloat())), nil
	case parc.BuiltinSin:
		return FloatVal(math.Sin(args[0].AsFloat())), nil
	case parc.BuiltinCos:
		return FloatVal(math.Cos(args[0].AsFloat())), nil
	case parc.BuiltinFloor:
		return FloatVal(math.Floor(args[0].AsFloat())), nil
	case parc.BuiltinFloat:
		return FloatVal(args[0].AsFloat()), nil
	case parc.BuiltinInt:
		return IntVal(args[0].AsInt()), nil
	case parc.BuiltinRnd:
		c.rng = c.rng*6364136223846793005 + 1442695040888963407
		return FloatVal(float64(c.rng>>11) / (1 << 53)), nil
	case parc.BuiltinRndseed:
		c.rng = uint64(args[0].AsInt())*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
		return IntVal(0), nil
	}
	return Value{}, c.errf("unknown builtin %q", n.Name)
}

// evalRangeRef expands a CICO annotation target into contiguous address
// ranges. Indices are clamped to the array bounds: annotations must never
// affect program semantics (paper Section 4.5), so out-of-range annotation
// indices are trimmed rather than faulting.
func (c *Context) evalRangeRef(r *parc.RangeRef, fr *frame) ([]AddrRange, error) {
	decl := r.Shared
	if decl == nil {
		return nil, c.errf("annotation target %q was not checked", r.Name)
	}
	base := c.bases[decl.Index]
	if len(decl.DimSizes) == 0 {
		return []AddrRange{{Lo: base, Hi: base}}, nil
	}
	los := make([]int, len(r.Indices))
	his := make([]int, len(r.Indices))
	for d, ix := range r.Indices {
		lov, err := c.eval(ix.Lo, fr)
		if err != nil {
			return nil, err
		}
		lo := int(lov.AsInt())
		hi := lo
		if ix.Hi != nil {
			hiv, err := c.eval(ix.Hi, fr)
			if err != nil {
				return nil, err
			}
			hi = int(hiv.AsInt())
		}
		lo = max(lo, 0)
		hi = min(hi, decl.DimSizes[d]-1)
		if lo > hi {
			return nil, nil // empty after clamping
		}
		los[d], his[d] = lo, hi
	}
	// Cartesian product over all but the last dimension; the last dimension
	// is contiguous.
	var out []AddrRange
	idx := make([]int, len(los))
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
		// Advance the multi-index over dims [0, last).
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
	return out, nil
}

// formatPrint renders a ParC print format with %d, %f, %g, and %% verbs.
func formatPrint(format string, args []Value) string {
	var sb strings.Builder
	ai := 0
	for i := 0; i < len(format); i++ {
		ch := format[i]
		if ch != '%' || i+1 >= len(format) {
			sb.WriteByte(ch)
			continue
		}
		i++
		verb := format[i]
		if verb == '%' {
			sb.WriteByte('%')
			continue
		}
		if ai >= len(args) {
			sb.WriteString("%!missing")
			continue
		}
		v := args[ai]
		ai++
		switch verb {
		case 'd':
			fmt.Fprintf(&sb, "%d", v.AsInt())
		case 'f':
			fmt.Fprintf(&sb, "%f", v.AsFloat())
		case 'g':
			fmt.Fprintf(&sb, "%g", v.AsFloat())
		default:
			fmt.Fprintf(&sb, "%%!%c", verb)
		}
	}
	return sb.String()
}
