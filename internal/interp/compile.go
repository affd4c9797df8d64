package interp

import (
	"fmt"

	"cachier/internal/parc"
)

// This file lowers checked ParC functions into the flat instruction streams
// executed by lane.go. The compiler's contract is strict observational
// equivalence with the tree-walker in interp.go: the sequence of Machine
// calls (Access/Directive/Barrier/Lock/Unlock/Work/Print), the argument of
// every one of them, and the points at which accumulated local work is
// flushed must be identical, because the simulator's schedule — and
// therefore every golden cycle count — derives from that event stream.
//
// Concretely that means:
//
//   - Every work(1) charge the tree-walker makes is replayed as a unit
//     charge: instructions carry an nwork count of pending unit charges,
//     applied one at a time before the instruction's own semantics, so the
//     512-cycle flush threshold trips at exactly the same event.
//   - Charges never migrate across a potential flush point (any shared
//     access, barrier, lock, print, or directive) or across a control-flow
//     merge; pending compile-time charges are closed into an opNop before
//     binding a jump target.
//   - Constant subscripts are folded into a precomputed offset, but the
//     per-dimension work charge and bounds check the tree-walker performs
//     are preserved (value math is folded, charge events are not).
//
// The compiler reads only what parc.Check resolved (Ref, Slot, Shared, Fn,
// Builtin, VarSlot); it never looks a name up. Every checked program
// compiles, so a function the compiler refuses — a node built after Check
// ran, or a compiler bug — makes the whole program an error (NewLaneVM
// reports it), never a reason to run on another engine.

// op is a VM opcode.
type op uint8

const (
	opNop         op = iota // hosts work charges only
	opConst                 // regs[a] = imm
	opCoerce                // regs[a] = coerce(regs[b], base(n))
	opJump                  // ip = n
	opJz                    // if !regs[a].Truthy() ip = n
	opSCAnd                 // if !regs[b].Truthy() { regs[a] = 0; ip = n }
	opSCOr                  // if regs[b].Truthy() { regs[a] = 1; ip = n }
	opTruthy                // regs[a] = boolVal(regs[b].Truthy())
	opNeg                   // regs[a] = -regs[b]
	opNot                   // regs[a] = !regs[b]
	opAdd                   // regs[a] = regs[b] + regs[c]
	opSub                   // regs[a] = regs[b] - regs[c]
	opMul                   // regs[a] = regs[b] * regs[c]
	opDiv                   // regs[a] = regs[b] / regs[c] (int /0 errors)
	opMod                   // regs[a] = regs[b] % regs[c] (int only)
	opEq                    // regs[a] = compare(regs[b], regs[c]) == 0
	opNe                    // ... != 0
	opLt                    // ... < 0
	opLe                    // ... <= 0
	opGt                    // ... > 0
	opGe                    // ... >= 0
	opBuiltin               // regs[a] = builtin n(regs[b], regs[c])
	opCall                  // regs[a] = call aux.(*callPayload)
	opRet                   // return regs[a] (a<0: fall-off-end/void)
	opForPrep               // init hidden loop state for aux.(*forPayload)
	opForCheck              // loop entry test; sets counter reg; exit to n
	opForNext               // back edge: counter += step, re-test, continue to n+1
	opAllocArr              // (re)allocate private array aux.(*allocPayload)
	opArrNil                // error if private array a never allocated (msg aux)
	opBounds                // bounds-check index regs[b] against size n
	opFail                  // unconditional runtime error aux.(*failPayload)
	opDivGuardReg           // /= guard: rhs regs[b] int-zero and !regs[a].Float errors
	opDivGuardInt           // /= guard: rhs regs[b] int-zero errors (dest statically int)
	opAsgLocal              // regs[a] = applyOp(regs[a], AssignOp(n), regs[b], cur.Float)
	opLoadArr               // regs[a] = private array element (aux *memAccess)
	opAsgArr                // private array element op= regs[b] (aux *memAccess)
	opLoadShared            // regs[a] = shared load (flush+Access; aux *memAccess)
	opAsgShared             // shared store/compound (flush+Access(+read); aux *memAccess)
	opBarrier               // flush; Barrier
	opLock                  // flush; Lock(regs[a].AsInt())
	opUnlock                // flush; Unlock(regs[a].AsInt())
	opPrint                 // flush; Print (aux *printPayload)
	opDirBegin              // reset directive clamp state (aux *dirPayload)
	opDirDim                // clamp dim c from regs[a]:regs[b]; empty → ip = n
	opDirEmit               // flush; Directive(scratch ranges)
	opDirNil                // flush; Directive(nil) — range empty after clamping

	// Fused compare-and-branch forms: evaluate the comparison and jump to n
	// when it is false, without materializing the boolean. Produced by the
	// peephole pass from a comparison whose sole consumer is the
	// immediately following opJz.
	opEqJf // if !(regs[b] == regs[c]) ip = n
	opNeJf
	opLtJf
	opLeJf
	opGtJf
	opGeJf
)

// instr is one VM instruction. pc is the enclosing statement ID (the trace
// program counter the tree-walker would have in curPC at this point), nwork
// the number of unit work charges to apply before the op's own semantics.
type instr struct {
	op      op
	nwork   uint16
	a, b, c int32 // register operands (or slot/array indices)
	n       int32 // jump target, assignment/builtin op, base type, size
	pc      int32
	imm     Value
	aux     any
}

// idxTerm is one non-constant subscript contribution to a flattened offset.
// When the term's bounds check has been folded into the access op (see
// foldBounds), size holds the dimension extent to check against and nwork
// the unit work charges that precede the check; size 0 means the check runs
// as a standalone opBounds earlier in the stream.
type idxTerm struct {
	reg    int32
	stride int64
	size   int64
	dim    int32
	nwork  uint16
}

// memAccess describes a lowered array or shared-variable access: the
// constant part of the flattened element offset plus one term per
// non-constant subscript. For private arrays arr is the frame array slot;
// for shared accesses decl carries the declaration (base address, type).
// postWork holds unit charges that follow the last folded bounds check
// (constant-subscript charges), applied after all term checks.
type memAccess struct {
	name     string
	arr      int32
	decl     *parc.SharedDecl
	constOff int64
	terms    []idxTerm
	isFloat  bool
	assignOp parc.AssignOp
	postWork uint16
}

// callPayload describes a user-function call site; compileProgram fills in
// the callee's code once every function is compiled.
type callPayload struct {
	fn   *parc.FuncDecl
	code *fnCode
	args []int32
}

// forPayload carries a counted loop's register layout: from/to/step source
// registers (step < 0 means the default step of 1), the triple of hidden
// state registers at base (i, hi, step), and the counter's visible register.
type forPayload struct {
	varName        string
	from, to, step int32
	base           int32
	slot           int32
}

type allocPayload struct {
	arr  int32
	size int
	dims []int
	base parc.BaseType
}

type printPayload struct {
	format string
	args   []int32
}

// dirPayload describes a CICO directive target; los/his index the
// per-dimension clamp state scratch on the Context.
type dirPayload struct {
	kind parc.AnnKind
	decl *parc.SharedDecl
}

type boundsPayload struct {
	name string
	dim  int
}

type failPayload struct {
	msg string
}

// fnCode is one compiled function. Registers are laid out as
// [named scalars | constant pool | temporaries]: the constant pool holds
// every distinct literal the body materializes, written once when a frame is
// first allocated and preserved across pooled reuse (release only clears the
// clearRegs named-scalar prefix; temporaries are always written before they
// are read).
type fnCode struct {
	fn        *parc.FuncDecl
	idx       int // frame pool index
	ins       []instr
	nregs     int
	narrs     int
	poolBase  int32
	poolVals  []Value
	clearRegs int
}

// progCode is the compiled form of a Program, cached on the Program via
// Artifact and shared by every Context that executes it.
type progCode struct {
	fns map[*parc.FuncDecl]*fnCode // fnCode.idx numbers them 0..len-1
	err error                      // the first function the compiler refused, if any
}

// compileProgram lowers every function, stopping at the first it refuses.
func compileProgram(prog *parc.Program) *progCode {
	pc := &progCode{fns: make(map[*parc.FuncDecl]*fnCode, len(prog.Funcs))}
	for _, f := range prog.Funcs {
		co, err := compileFunc(f)
		if err != nil {
			pc.err = fmt.Errorf("interp: compiling %s: %w", f.Name, err)
			return pc
		}
		co.idx = len(pc.fns)
		pc.fns[f] = co
	}
	// Resolve call sites now that every function has been compiled.
	for _, co := range pc.fns {
		for i := range co.ins {
			if cp, ok := co.ins[i].aux.(*callPayload); ok {
				cp.code = pc.fns[cp.fn]
			}
		}
	}
	return pc
}

type funcCompiler struct {
	fn *parc.FuncDecl

	ins     []instr
	pend    int
	curStmt int32

	sp    int32 // next free register
	maxSp int32

	pool       map[Value]int32 // literal value -> constant-pool register
	constSeen  map[Value]bool
	constOrder []Value
	firstTemp  int32

	labels []int32 // label id -> instruction index (patched at bind time)
}

// compileFunc lowers a function in two passes: the first discovers the
// distinct literal values the body materializes, the second compiles for
// real with those values pinned in constant-pool registers, so literal
// references cost nothing in the instruction stream.
func compileFunc(f *parc.FuncDecl) (*fnCode, error) {
	scout := &funcCompiler{fn: f, sp: int32(f.NumScalars)}
	if _, err := scout.compile(nil); err != nil {
		return nil, err
	}
	fc := &funcCompiler{fn: f, sp: int32(f.NumScalars)}
	return fc.compile(scout.constOrder)
}

func (fc *funcCompiler) compile(poolVals []Value) (*fnCode, error) {
	f := fc.fn
	fc.maxSp = fc.sp
	poolBase := fc.sp
	if len(poolVals) > 0 {
		fc.pool = make(map[Value]int32, len(poolVals))
		for _, v := range poolVals {
			fc.pool[v] = fc.alloc()
		}
	}
	fc.firstTemp = fc.sp
	if err := fc.block(f.Body); err != nil {
		return nil, err
	}
	// Fall-off-the-end return; hosts any trailing pending charges.
	fc.emit(instr{op: opRet, a: -1})
	fc.propagateCopies()
	fc.fuseCompares()
	for i := range fc.ins {
		if isJumpOp(fc.ins[i].op) {
			fc.ins[i].n = fc.labels[fc.ins[i].n]
		}
	}
	return &fnCode{
		fn:        f,
		ins:       fc.ins,
		nregs:     int(fc.maxSp),
		narrs:     f.NumArrays,
		poolBase:  poolBase,
		poolVals:  poolVals,
		clearRegs: f.NumScalars,
	}, nil
}

func isJumpOp(o op) bool {
	switch o {
	case opJump, opJz, opSCAnd, opSCOr, opForCheck, opForNext, opDirDim,
		opEqJf, opNeJf, opLtJf, opLeJf, opGtJf, opGeJf:
		return true
	}
	return false
}

// fusedOp maps a comparison opcode to its fused compare-and-branch form.
func fusedOp(o op) (op, bool) {
	switch o {
	case opEq:
		return opEqJf, true
	case opNe:
		return opNeJf, true
	case opLt:
		return opLtJf, true
	case opLe:
		return opLeJf, true
	case opGt:
		return opGtJf, true
	case opGe:
		return opGeJf, true
	}
	return o, false
}

// retargetable reports whether an op's only register effect is writing
// regs[a] (it never reads regs[a]), so its destination can be renamed.
// Machine-visible side effects (an Access from a load, a builtin's rng
// update) are untouched by renaming the destination.
func retargetable(o op) bool {
	switch o {
	case opConst, opCoerce, opTruthy, opNeg, opNot,
		opAdd, opSub, opMul, opDiv, opMod,
		opEq, opNe, opLt, opLe, opGt, opGe,
		opBuiltin, opCall, opLoadArr, opLoadShared:
		return true
	}
	return false
}

// propagateCopies folds the ubiquitous pattern
//
//	temp = <op ...>        (temp's only writer)
//	slot = temp            (plain opAsgLocal, OpSet)
//
// into a single instruction writing the slot directly. Safe because every
// expression temporary has exactly one consumer (the parent construct), so
// nothing reads temp after the dropped assignment; OpSet stores the value
// unmodified, so redirecting the producer is observationally identical. The
// assignment must host no work charges (hosted charges would migrate across
// the producer's Machine effects) and must not be a jump target (the jump
// would skip the store). Runs before label patching; removed instructions
// only require remapping label indices.
func (fc *funcCompiler) propagateCopies() {
	isTarget := make(map[int32]bool, len(fc.labels))
	for _, idx := range fc.labels {
		isTarget[idx] = true
	}
	out := fc.ins[:0]
	remap := make([]int32, len(fc.ins)+1)
	for i := 0; i < len(fc.ins); i++ {
		remap[i] = int32(len(out))
		in := fc.ins[i]
		if i > 0 && len(out) > 0 && in.op == opAsgLocal &&
			parc.AssignOp(in.n) == parc.OpSet && in.nwork == 0 &&
			in.b >= fc.firstTemp && !isTarget[int32(i)] {
			prev := &out[len(out)-1]
			// prev must be the instruction emitted immediately before the
			// assignment (nothing dropped in between shifts it: drops only
			// retarget temps to slots, which then fail the prev.a==in.b test).
			if retargetable(prev.op) && prev.a == in.b {
				prev.a = in.a
				continue
			}
		}
		out = append(out, in)
	}
	remap[len(fc.ins)] = int32(len(out))
	for l, idx := range fc.labels {
		if idx >= 0 {
			fc.labels[l] = remap[idx]
		}
	}
	fc.ins = out
}

// fuseCompares rewrites comparison + opJz pairs into single fused
// compare-and-branch instructions. A pair fuses only when the branch tests
// the register the comparison just wrote, that register is a temporary (so
// nothing else reads it), the branch is not itself a jump target, and the
// merged work charges fit; the charge order is preserved because the
// comparison's charges precede the test in both forms. Runs before label
// patching, so removed branches only require remapping label indices.
func (fc *funcCompiler) fuseCompares() {
	isTarget := make(map[int32]bool, len(fc.labels))
	for _, idx := range fc.labels {
		isTarget[idx] = true
	}
	out := fc.ins[:0]
	remap := make([]int32, len(fc.ins)+1)
	for i := 0; i < len(fc.ins); i++ {
		remap[i] = int32(len(out))
		in := fc.ins[i]
		if f, ok := fusedOp(in.op); ok && i+1 < len(fc.ins) {
			nx := fc.ins[i+1]
			if nx.op == opJz && nx.a == in.a && in.a >= fc.firstTemp &&
				!isTarget[int32(i+1)] && int(in.nwork)+int(nx.nwork) <= 0xFFFF {
				in.op = f
				in.nwork += nx.nwork
				in.n = nx.n
				remap[i+1] = int32(len(out))
				out = append(out, in)
				i++
				continue
			}
		}
		out = append(out, in)
	}
	remap[len(fc.ins)] = int32(len(out))
	for l, idx := range fc.labels {
		if idx >= 0 {
			fc.labels[l] = remap[idx]
		}
	}
	fc.ins = out
}

// errUncompilable marks a construct the compiler refuses; the program then
// does not run.
func errUncompilable(format string, args ...any) error {
	return fmt.Errorf("uncompilable: "+format, args...)
}

// constVal returns a register holding the literal value: the constant-pool
// register when one is assigned (written once per frame, no per-use
// instruction), else a freshly written temporary. Literal evaluation is
// charge-free in the tree-walker, so eliding the instruction moves no work
// charges across any observable event. On the discovery pass the value is
// recorded for the real pass's pool.
func (fc *funcCompiler) constVal(v Value) int32 {
	if r, ok := fc.pool[v]; ok {
		return r
	}
	if !fc.constSeen[v] {
		if fc.constSeen == nil {
			fc.constSeen = make(map[Value]bool)
		}
		fc.constSeen[v] = true
		fc.constOrder = append(fc.constOrder, v)
	}
	dst := fc.alloc()
	fc.emit(instr{op: opConst, a: dst, imm: v})
	return dst
}

func (fc *funcCompiler) alloc() int32 {
	r := fc.sp
	fc.sp++
	if fc.sp > fc.maxSp {
		fc.maxSp = fc.sp
	}
	return r
}

func (fc *funcCompiler) charge(n int) { fc.pend += n }

// emit appends an instruction, attaching pending work charges and the
// current statement's trace PC.
func (fc *funcCompiler) emit(in instr) int32 {
	for fc.pend > 0xFFFF {
		fc.ins = append(fc.ins, instr{op: opNop, nwork: 0xFFFF, pc: fc.curStmt})
		fc.pend -= 0xFFFF
	}
	in.nwork += uint16(fc.pend)
	fc.pend = 0
	in.pc = fc.curStmt
	fc.ins = append(fc.ins, in)
	return int32(len(fc.ins) - 1)
}

// closePending hosts any pending charges in an opNop; called before binding
// a label so charges cannot leak across a control-flow merge.
func (fc *funcCompiler) closePending() {
	if fc.pend > 0 {
		fc.emit(instr{op: opNop})
	}
}

func (fc *funcCompiler) newLabel() int32 {
	fc.labels = append(fc.labels, -1)
	return int32(len(fc.labels) - 1)
}

func (fc *funcCompiler) bind(l int32) {
	fc.closePending()
	fc.labels[l] = int32(len(fc.ins))
}

func (fc *funcCompiler) block(b *parc.Block) error {
	for _, s := range b.Stmts {
		if err := fc.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (fc *funcCompiler) stmt(s parc.Stmt) error {
	fc.curStmt = int32(s.ID())
	fc.charge(1) // execStmt entry charge
	mark := fc.sp
	defer func() { fc.sp = mark }()

	switch n := s.(type) {
	case *parc.Block:
		return fc.block(n)

	case *parc.VarDeclStmt:
		if n.Slot == 0 {
			return errUncompilable("declaration of %q was not checked", n.Name)
		}
		if len(n.DimSizes) > 0 {
			size := 1
			for _, d := range n.DimSizes {
				size *= d
			}
			fc.emit(instr{op: opAllocArr, aux: &allocPayload{arr: int32(n.Slot - 1), size: size, dims: n.DimSizes, base: n.Base}})
			return nil
		}
		if n.Init != nil {
			r, err := fc.expr(n.Init)
			if err != nil {
				return err
			}
			fc.emit(instr{op: opCoerce, a: int32(n.Slot - 1), b: r, n: int32(n.Base)})
			return nil
		}
		fc.emit(instr{op: opConst, a: int32(n.Slot - 1), imm: coerce(Value{}, n.Base)})
		return nil

	case *parc.AssignStmt:
		return fc.assign(n)

	case *parc.IfStmt:
		r, err := fc.expr(n.Cond)
		if err != nil {
			return err
		}
		end := fc.newLabel()
		if n.Else == nil {
			fc.emit(instr{op: opJz, a: r, n: end})
			if err := fc.block(n.Then); err != nil {
				return err
			}
			fc.bind(end)
			return nil
		}
		els := fc.newLabel()
		fc.emit(instr{op: opJz, a: r, n: els})
		if err := fc.block(n.Then); err != nil {
			return err
		}
		fc.emit(instr{op: opJump, n: end})
		fc.bind(els)
		if err := fc.stmt(n.Else); err != nil {
			return err
		}
		fc.curStmt = int32(s.ID())
		fc.bind(end)
		return nil

	case *parc.WhileStmt:
		head := fc.newLabel()
		exit := fc.newLabel()
		fc.bind(head)
		r, err := fc.expr(n.Cond)
		if err != nil {
			return err
		}
		fc.emit(instr{op: opJz, a: r, n: exit})
		if err := fc.block(n.Body); err != nil {
			return err
		}
		// Per-iteration charge precedes the next condition evaluation.
		fc.curStmt = int32(s.ID())
		fc.charge(1)
		fc.emit(instr{op: opJump, n: head})
		fc.bind(exit)
		return nil

	case *parc.ForStmt:
		base := fc.alloc()
		fc.alloc()
		fc.alloc()
		rf, err := fc.expr(n.From)
		if err != nil {
			return err
		}
		rt, err := fc.expr(n.To)
		if err != nil {
			return err
		}
		rs := int32(-1)
		if n.Step != nil {
			if rs, err = fc.expr(n.Step); err != nil {
				return err
			}
		}
		if n.VarSlot == 0 {
			return errUncompilable("loop counter %q has no slot", n.Var)
		}
		slot := int32(n.VarSlot - 1)
		fp := &forPayload{varName: n.Var, from: rf, to: rt, step: rs, base: base, slot: slot}
		fc.emit(instr{op: opForPrep, aux: fp})
		head := fc.newLabel()
		exit := fc.newLabel()
		fc.bind(head)
		fc.emit(instr{op: opForCheck, a: base, b: slot, n: exit})
		if err := fc.block(n.Body); err != nil {
			return err
		}
		fc.curStmt = int32(s.ID())
		fc.charge(1) // per-iteration charge precedes increment and re-check
		// The back edge increments, re-tests, and jumps straight to the body
		// (n resolves to the opForCheck, so n+1 is its successor) in one
		// dispatch; opForCheck runs only on loop entry. The head check hosts
		// no work charges (bind closed pending just before it was emitted),
		// so skipping it on iterations leaves charging identical.
		fc.emit(instr{op: opForNext, a: base, b: slot, n: head})
		fc.bind(exit)
		return nil

	case *parc.BarrierStmt:
		fc.emit(instr{op: opBarrier})
		return nil

	case *parc.LockStmt:
		r, err := fc.expr(n.LockID)
		if err != nil {
			return err
		}
		fc.emit(instr{op: opLock, a: r})
		return nil

	case *parc.UnlockStmt:
		r, err := fc.expr(n.LockID)
		if err != nil {
			return err
		}
		fc.emit(instr{op: opUnlock, a: r})
		return nil

	case *parc.ReturnStmt:
		if n.Value != nil {
			r, err := fc.expr(n.Value)
			if err != nil {
				return err
			}
			fc.emit(instr{op: opRet, a: r, n: 1})
			return nil
		}
		fc.emit(instr{op: opRet, a: -1, n: 1})
		return nil

	case *parc.ExprStmt:
		_, err := fc.expr(n.Call)
		return err

	case *parc.PrintStmt:
		args := make([]int32, len(n.Args))
		for i, a := range n.Args {
			r, err := fc.expr(a)
			if err != nil {
				return err
			}
			args[i] = r
		}
		fc.emit(instr{op: opPrint, aux: &printPayload{format: n.Format, args: args}})
		return nil

	case *parc.CICOStmt:
		return fc.directive(n)

	case *parc.CommentStmt:
		return nil // entry charge rolls into the next instruction
	}
	return errUncompilable("cannot compile %T", s)
}

// directive lowers a CICO statement. Dimension bounds are evaluated in
// order, and an empty-after-clamping dimension short-circuits the remaining
// evaluations exactly as the tree-walker's evalRangeRef does.
func (fc *funcCompiler) directive(n *parc.CICOStmt) error {
	r := n.Target
	decl := r.Shared
	if decl == nil {
		return errUncompilable("annotation target %q was not checked", r.Name)
	}
	dp := &dirPayload{kind: n.Kind, decl: decl}
	if len(decl.DimSizes) == 0 {
		fc.emit(instr{op: opDirEmit, aux: dp})
		return nil
	}
	if len(r.Indices) > len(decl.DimSizes) {
		return errUncompilable("annotation target %q has too many dimensions", r.Name)
	}
	fc.emit(instr{op: opDirBegin, aux: dp})
	empty := fc.newLabel()
	end := fc.newLabel()
	for d, ix := range r.Indices {
		lo, err := fc.expr(ix.Lo)
		if err != nil {
			return err
		}
		hi := int32(-1)
		if ix.Hi != nil {
			if hi, err = fc.expr(ix.Hi); err != nil {
				return err
			}
		}
		fc.emit(instr{op: opDirDim, a: lo, b: hi, c: int32(d), n: empty, aux: dp})
	}
	fc.emit(instr{op: opDirEmit, aux: dp})
	fc.emit(instr{op: opJump, n: end})
	fc.bind(empty)
	fc.emit(instr{op: opDirNil, aux: dp})
	fc.bind(end)
	return nil
}

// assign lowers an assignment to the destination Check resolved.
func (fc *funcCompiler) assign(n *parc.AssignStmt) error {
	lv := n.LHS
	rhs, err := fc.expr(n.RHS)
	if err != nil {
		return err
	}
	slot, decl := int32(lv.Slot), lv.Shared
	var arr *parc.VarDeclStmt
	switch lv.Ref {
	case parc.RefLocal, parc.RefShared:
	case parc.RefArray:
		if arr = fc.arrayDecl(lv.Name, slot); arr == nil {
			return errUncompilable("array %q has no declaration", lv.Name)
		}
	default:
		return errUncompilable("assignment to %q was not checked", lv.Name)
	}

	// The /= integer-zero guard runs after the RHS evaluation but before
	// any index evaluation, so it is emitted first.
	if n.Op == parc.OpDiv {
		switch lv.Ref {
		case parc.RefLocal:
			fc.emit(instr{op: opDivGuardReg, a: slot, b: rhs})
		case parc.RefArray:
			if arr.Base != parc.FloatType {
				fc.emit(instr{op: opDivGuardInt, b: rhs})
			}
		case parc.RefShared:
			if decl.Base != parc.FloatType {
				fc.emit(instr{op: opDivGuardInt, b: rhs})
			}
		}
	}

	switch lv.Ref {
	case parc.RefLocal:
		fc.emit(instr{op: opAsgLocal, a: slot, b: rhs, n: int32(n.Op)})
		return nil

	case parc.RefArray:
		fc.emit(instr{op: opArrNil, a: slot, aux: &failPayload{msg: fmt.Sprintf("undefined variable %q", lv.Name)}})
		ma := &memAccess{name: lv.Name, arr: slot, isFloat: arr.Base == parc.FloatType, assignOp: n.Op}
		if err := fc.indices(ma, arr.DimSizes, lv.Indices); err != nil {
			return err
		}
		fc.emitAccess(instr{op: opAsgArr, b: rhs, n: int32(n.Op), aux: ma}, ma)
		return nil
	}

	ma := &memAccess{name: decl.Name, decl: decl, isFloat: decl.Base == parc.FloatType, assignOp: n.Op}
	if err := fc.indices(ma, decl.DimSizes, lv.Indices); err != nil {
		return err
	}
	fc.emitAccess(instr{op: opAsgShared, b: rhs, n: int32(n.Op), aux: ma}, ma)
	return nil
}

// arrayDecl finds the VarDeclStmt for a private array slot so the compiler
// can see its dimensions; the checker records it in the binding table.
func (fc *funcCompiler) arrayDecl(name string, slot int32) *parc.VarDeclStmt {
	if b, ok := fc.fn.Bindings[name]; ok && b.Array && int32(b.Slot) == slot {
		return b.Decl
	}
	return nil
}

// indices lowers a subscript list: per dimension, the tree-walker charges
// one work unit, evaluates the index, then bounds-checks it. Constant
// subscripts fold into ma.constOff; their charge and (compile-time) bounds
// check remain.
func (fc *funcCompiler) indices(ma *memAccess, dims []int, indices []parc.Expr) error {
	if len(indices) > len(dims) {
		return errUncompilable("%s: more subscripts than dimensions", ma.name)
	}
	// stride[d] over the dimensions actually subscripted: the tree-walker
	// computes off = off*dims[d] + ix over d < len(indices).
	stride := int64(1)
	strides := make([]int64, len(indices))
	for d := len(indices) - 1; d >= 0; d-- {
		strides[d] = stride
		stride *= int64(dims[d])
	}
	var boundsAt []int32 // instruction index of each dynamic term's opBounds
	for d, ixe := range indices {
		fc.charge(1)
		if k, ok := fc.constIndex(ixe); ok {
			if k < 0 || k >= int64(dims[d]) {
				fc.emit(instr{op: opFail, aux: &failPayload{
					msg: fmt.Sprintf("%s: index %d out of range [0,%d) in dimension %d", ma.name, int(k), dims[d], d),
				}})
				// Execution never passes the failure; no offset term needed.
				continue
			}
			ma.constOff += k * strides[d]
			continue
		}
		r, err := fc.expr(ixe)
		if err != nil {
			return err
		}
		bi := fc.emit(instr{op: opBounds, b: r, n: int32(dims[d]), aux: &boundsPayload{name: ma.name, dim: d}})
		boundsAt = append(boundsAt, bi)
		ma.terms = append(ma.terms, idxTerm{reg: r, stride: strides[d], dim: int32(d)})
	}
	fc.foldBounds(ma, boundsAt)
	return nil
}

// foldBounds folds the trailing run of standalone bounds-check instructions
// into the access op's terms. Only a check with no instructions between it
// and the access can move: anything in between (a later subscript whose
// evaluation emits code) could error or report a Machine event that the
// tree-walker orders after this check. Each folded term records the unit
// charges its check instruction hosted, so the access op replays the
// tree-walker's charge/check interleaving exactly; a check that is a jump
// target stays put so label indices remain valid.
func (fc *funcCompiler) foldBounds(ma *memAccess, boundsAt []int32) {
	j := int32(len(fc.ins) - 1)
	t := len(ma.terms) - 1
	for t >= 0 && boundsAt[t] == j && !fc.isLabelTarget(j) {
		in := fc.ins[j]
		ma.terms[t].size = int64(in.n)
		ma.terms[t].nwork = in.nwork
		j--
		t--
	}
	fc.ins = fc.ins[:j+1]
}

func (fc *funcCompiler) isLabelTarget(idx int32) bool {
	for _, v := range fc.labels {
		if v == idx {
			return true
		}
	}
	return false
}

// emitAccess emits a memory-access instruction. When bounds checks were
// folded into its terms, the charges the instruction itself would host
// (those following the last folded check — constant-subscript charges) move
// to ma.postWork so they are applied after the term checks, in tree order.
func (fc *funcCompiler) emitAccess(in instr, ma *memAccess) {
	folded := false
	for i := range ma.terms {
		if ma.terms[i].size > 0 {
			folded = true
			break
		}
	}
	idx := fc.emit(in)
	if folded {
		ma.postWork = fc.ins[idx].nwork
		fc.ins[idx].nwork = 0
	}
}

// constIndex reports whether a subscript expression is a charge-free
// compile-time constant (literal or named constant) that can be folded.
func (fc *funcCompiler) constIndex(e parc.Expr) (int64, bool) {
	switch x := e.(type) {
	case *parc.IntLit:
		return x.Value, true
	case *parc.FloatLit:
		return int64(x.Value), true // AsInt truncation, as the tree-walker does
	case *parc.VarRef:
		if x.Ref == parc.RefConst {
			return x.Const, true
		}
	}
	return 0, false
}

// expr compiles an expression and returns the register holding its value.
// Named scalars are returned in place (no copy); everything else lands in a
// temporary above the statement's register mark.
func (fc *funcCompiler) expr(e parc.Expr) (int32, error) {
	switch n := e.(type) {
	case *parc.IntLit:
		return fc.constVal(IntVal(n.Value)), nil

	case *parc.FloatLit:
		return fc.constVal(FloatVal(n.Value)), nil

	case *parc.VarRef:
		return fc.varRef(n)

	case *parc.IndexExpr:
		return fc.indexExpr(n)

	case *parc.CallExpr:
		return fc.callExpr(n)

	case *parc.UnaryExpr:
		x, err := fc.expr(n.X)
		if err != nil {
			return 0, err
		}
		fc.charge(1)
		dst := fc.alloc()
		switch n.Op {
		case parc.TokMinus:
			fc.emit(instr{op: opNeg, a: dst, b: x})
		case parc.TokNot:
			fc.emit(instr{op: opNot, a: dst, b: x})
		default:
			return 0, errUncompilable("bad unary operator")
		}
		return dst, nil

	case *parc.BinaryExpr:
		return fc.binary(n)
	}
	return 0, errUncompilable("cannot compile %T", e)
}

func (fc *funcCompiler) varRef(n *parc.VarRef) (int32, error) {
	switch n.Ref {
	case parc.RefLocal:
		return int32(n.Slot), nil
	case parc.RefConst:
		return fc.constVal(IntVal(n.Const)), nil
	case parc.RefShared:
		dst := fc.alloc()
		fc.emit(instr{op: opLoadShared, a: dst, aux: &memAccess{name: n.Name, decl: n.Shared, isFloat: n.Shared.Base == parc.FloatType}})
		return dst, nil
	}
	return 0, errUncompilable("reference to %q was not checked", n.Name)
}

func (fc *funcCompiler) indexExpr(n *parc.IndexExpr) (int32, error) {
	switch n.Ref {
	case parc.RefArray:
		arrSlot := int32(n.Slot)
		arr := fc.arrayDecl(n.Name, arrSlot)
		if arr == nil {
			return 0, errUncompilable("array %q has no declaration", n.Name)
		}
		// The tree-walker checks "never allocated" before evaluating
		// subscripts.
		fc.emit(instr{op: opArrNil, a: arrSlot, aux: &failPayload{msg: fmt.Sprintf("%q is not an array", n.Name)}})
		ma := &memAccess{name: n.Name, arr: arrSlot, isFloat: arr.Base == parc.FloatType}
		if err := fc.indices(ma, arr.DimSizes, n.Indices); err != nil {
			return 0, err
		}
		dst := fc.alloc()
		fc.emitAccess(instr{op: opLoadArr, a: dst, aux: ma}, ma)
		return dst, nil

	case parc.RefShared:
		decl := n.Shared
		ma := &memAccess{name: decl.Name, decl: decl, isFloat: decl.Base == parc.FloatType}
		if err := fc.indices(ma, decl.DimSizes, n.Indices); err != nil {
			return 0, err
		}
		dst := fc.alloc()
		fc.emitAccess(instr{op: opLoadShared, a: dst, aux: ma}, ma)
		return dst, nil
	}
	return 0, errUncompilable("reference to %q was not checked", n.Name)
}

func (fc *funcCompiler) callExpr(n *parc.CallExpr) (int32, error) {
	id, f := n.Builtin, n.Fn
	if id == parc.BuiltinNone && f == nil {
		return 0, errUncompilable("call to %q was not checked", n.Name)
	}
	if id != parc.BuiltinNone {
		if len(n.Args) > 2 {
			return 0, errUncompilable("builtin %q with %d args", n.Name, len(n.Args))
		}
		argr := [2]int32{-1, -1}
		for i, a := range n.Args {
			r, err := fc.expr(a)
			if err != nil {
				return 0, err
			}
			argr[i] = r
		}
		fc.charge(1)
		dst := fc.alloc()
		fc.emit(instr{op: opBuiltin, a: dst, b: argr[0], c: argr[1], n: int32(id)})
		return dst, nil
	}
	args := make([]int32, len(n.Args))
	for i, a := range n.Args {
		r, err := fc.expr(a)
		if err != nil {
			return 0, err
		}
		args[i] = r
	}
	dst := fc.alloc()
	fc.emit(instr{op: opCall, a: dst, aux: &callPayload{fn: f, args: args}})
	return dst, nil
}

func (fc *funcCompiler) binary(n *parc.BinaryExpr) (int32, error) {
	if n.Op == parc.TokAndAnd || n.Op == parc.TokOrOr {
		x, err := fc.expr(n.X)
		if err != nil {
			return 0, err
		}
		fc.charge(1)
		dst := fc.alloc()
		end := fc.newLabel()
		sc := opSCAnd
		if n.Op == parc.TokOrOr {
			sc = opSCOr
		}
		fc.emit(instr{op: sc, a: dst, b: x, n: end})
		y, err := fc.expr(n.Y)
		if err != nil {
			return 0, err
		}
		fc.emit(instr{op: opTruthy, a: dst, b: y})
		fc.bind(end)
		return dst, nil
	}

	x, err := fc.expr(n.X)
	if err != nil {
		return 0, err
	}
	y, err := fc.expr(n.Y)
	if err != nil {
		return 0, err
	}
	fc.charge(1)
	var o op
	switch n.Op {
	case parc.TokPlus:
		o = opAdd
	case parc.TokMinus:
		o = opSub
	case parc.TokStar:
		o = opMul
	case parc.TokSlash:
		o = opDiv
	case parc.TokPercent:
		o = opMod
	case parc.TokEq:
		o = opEq
	case parc.TokNe:
		o = opNe
	case parc.TokLt:
		o = opLt
	case parc.TokLe:
		o = opLe
	case parc.TokGt:
		o = opGt
	case parc.TokGe:
		o = opGe
	default:
		return 0, errUncompilable("bad binary operator")
	}
	dst := fc.alloc()
	fc.emit(instr{op: o, a: dst, b: x, c: y})
	return dst, nil
}
