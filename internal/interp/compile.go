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
// Registers are typed. The compiler gives every expression a kind from what
// parc.Check resolved — a slot's declared type (FuncDecl.Scalars), an array's
// element type, a loop counter, a literal, a builtin's or function's result —
// and int/float promotion bottom-up through the operators, so the lane holds
// raw 8-byte words and every arithmetic, compare and assignment op is an int
// or a float variant that tests no tag. Where the tree-walker converts
// implicitly (AsFloat, AsInt, coerce) the compiler emits an explicit
// conversion, which carries no charge of its own. The one type that depends
// on a value is kDyn's.
//
// The compiler reads only what parc.Check resolved (Ref, Slot, Shared, Fn,
// Builtin, VarSlot, Scalars); it never looks a name up. Every checked
// program compiles, so a function the compiler refuses — a node built after
// Check ran, or a compiler bug — makes the whole program an error
// (NewLaneVM reports it), never a reason to run on another engine.

// kind is the type of a register's contents.
type kind uint8

const (
	kInt   kind = iota // int64 bits
	kFloat             // float64 bits
	// kDyn is the type min or max of an int and a float has: the winning
	// operand's, so it is known only once the operands are. A kDyn value
	// takes two registers, the bits and beside them a tag (nonzero for a
	// float); opDyn computes on it with the tree-walker's Value semantics,
	// and opD2I/opD2F convert it wherever a typed consumer takes it.
	kDyn
)

func kindOf(b parc.BaseType) kind {
	if b == parc.FloatType {
		return kFloat
	}
	return kInt
}

// val is a compiled expression: the register holding it and its kind.
type val struct {
	r int32
	k kind
}

// op is a VM opcode.
type op uint8

const (
	opNop     op = iota // hosts work charges only
	opConst             // regs[a] = imm
	opMov               // regs[a] = regs[b]
	opI2F               // regs[a] = float(int regs[b])
	opF2I               // regs[a] = int(float regs[b]), truncated
	opD2I               // regs[a] = kDyn regs[b] as int
	opD2F               // regs[a] = kDyn regs[b] as float
	opTruthyF           // regs[a] = float regs[b] != 0
	opJump              // ip = n
	opJz                // if regs[a] == 0 ip = n
	opSCAnd             // if regs[b] == 0 { regs[a] = 0; ip = n }
	opSCOr              // if regs[b] != 0 { regs[a] = 1; ip = n }
	opTruthy            // regs[a] = regs[b] != 0
	opNot               // regs[a] = regs[b] == 0
	opNegI              // regs[a] = -regs[b]
	opNegF
	opModI // regs[a] = regs[b] % regs[c] (modulo by zero errors)

	// Arithmetic, in the order of arithOps: int, then float.
	opAddI // regs[a] = regs[b] + regs[c]
	opSubI
	opMulI
	opDivI // division by zero errors
	opAddF
	opSubF
	opMulF
	opDivF

	// Comparisons, in the order of cmpOps: int, then float, then the fused
	// compare-and-branch forms, which jump to n when the comparison is false
	// without materializing the boolean (emitJz makes them from a comparison
	// whose sole consumer is the opJz right after it). Float compares follow
	// compare's ordering: NaN is neither less nor greater than anything.
	opEqI // regs[a] = regs[b] == regs[c]
	opNeI
	opLtI
	opLeI
	opGtI
	opGeI
	opEqF
	opNeF
	opLtF
	opLeF
	opGtF
	opGeF
	opEqIJf // if !(regs[b] == regs[c]) ip = n
	opNeIJf
	opLtIJf
	opLeIJf
	opGtIJf
	opGeIJf
	opEqFJf
	opNeFJf
	opLtFJf
	opLeFJf
	opGtFJf
	opGeFJf

	opBuiltin  // regs[a] = builtin n (a vb* id) of regs[b], regs[c]
	opDyn      // a kDyn operation, aux *dynPayload
	opCall     // regs[a] = call aux.(*callPayload)
	opRet      // return regs[a] (a<0: fall-off-end/void)
	opForPrep  // init hidden loop state for aux.(*forPayload)
	opForCheck // loop entry test; sets last value and counter reg; exit to n
	opForNext  // back edge: unless at last, counter += step, continue to n+1
	opAllocArr // (re)allocate private array aux.(*allocPayload)
	opArrNil   // error if private array a never allocated (msg aux)
	opBounds   // bounds-check index regs[b] against size n
	opFail     // unconditional runtime error aux.(*failPayload)
	opDivGuard // /= guard: int rhs regs[b] == 0 errors (int destination)

	opLoadArr    // regs[a] = private array element (aux *memAccess)
	opAsgArr     // private array element op= regs[b] (aux *memAccess)
	opLoadShared // regs[a] = shared load (flush+Access; aux *memAccess)
	opAsgShared  // shared store/compound (flush+Access(+read); aux *memAccess)
	opBarrier    // flush; Barrier
	opLock       // flush; Lock(regs[a])
	opUnlock     // flush; Unlock(regs[a])
	opPrint      // flush; Print (aux *printPayload)
	opDirBegin   // reset directive clamp state (aux *dirPayload)
	opDirDim     // clamp dim c from regs[a]:regs[b]; empty → ip = n
	opDirEmit    // flush; Directive(scratch ranges)
	opDirNil     // flush; Directive(nil) — range empty after clamping
)

// arithOps and cmpOps index the typed operators by token; the float variant
// of an int op is the int op plus its table's width.
var (
	arithOps = map[parc.TokKind]op{parc.TokPlus: opAddI, parc.TokMinus: opSubI, parc.TokStar: opMulI, parc.TokSlash: opDivI}
	cmpOps   = map[parc.TokKind]op{parc.TokEq: opEqI, parc.TokNe: opNeI, parc.TokLt: opLtI, parc.TokLe: opLeI, parc.TokGt: opGtI, parc.TokGe: opGeI}
)

const (
	arithFloat = opAddF - opAddI
	cmpFloat   = opEqF - opEqI
	cmpFused   = opEqIJf - opEqI
)

func isCompare(o op) bool { return o >= opEqI && o <= opGeF }

// Builtins as the lane runs them (opBuiltin's n): the typed variants, and
// the rest with their arguments already converted to the types they take.
const (
	vbPid int32 = iota
	vbNprocs
	vbMinI
	vbMinF
	vbMaxI
	vbMaxF
	vbAbsI
	vbAbsF
	vbSqrt
	vbSin
	vbCos
	vbFloor
	vbRnd
	vbRndseed
)

// instr is one VM instruction. pc is the enclosing statement ID (the trace
// program counter the tree-walker would have in curPC at this point), nwork
// the number of unit work charges to apply before the op's own semantics.
type instr struct {
	op      op
	nwork   uint16
	a, b, c int32 // register operands (or slot/array indices)
	n       int32 // jump target, builtin, size
	pc      int32
	imm     uint64
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
// (constant-subscript charges), applied after all term checks; work is the
// walk's charges in all. An assignment combines the element with its
// right-hand side as asg says.
type memAccess struct {
	name     string
	arr      int32
	decl     *parc.SharedDecl
	constOff int64
	terms    []idxTerm
	asg      asgOp
	assignOp parc.AssignOp
	postWork uint16
	work     uint64
}

// asgOp is how an element assignment combines the element (of the array's
// type) with its right-hand side, picked from the two kinds at compile time.
type asgOp uint8

const (
	asgSet  asgOp = iota // store the rhs, already converted to the element's type
	asgAddI              // int element, int rhs
	asgSubI
	asgMulI
	asgDivI
	asgAddF // float element, rhs converted to float
	asgSubF
	asgMulF
	asgDivF
	asgAddX // int element, float rhs: computed in floats, truncated
	asgSubX
	asgMulX
	asgDivX
	asgDyn // int element, kDyn rhs: the tree-walker's applyOp
)

// callPayload describes a user-function call site, its arguments already of
// the parameters' types; compileProgram fills in the callee's code once
// every function is compiled.
type callPayload struct {
	fn   *parc.FuncDecl
	code *fnCode
	args []int32
}

// forPayload carries a counted loop's register layout: from/to/step source
// registers (int; step < 0 means the default step of 1), and the triple of
// hidden state registers at base (i, to, step), where opForCheck replaces
// to with the counter's last value (forLast).
type forPayload struct {
	varName        string
	from, to, step int32
	base           int32
}

type allocPayload struct {
	arr  int32
	size int
}

type printPayload struct {
	format string
	args   []val
}

// dirPayload describes a CICO directive target.
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

// dynOp is what an opDyn computes, on regs[b] (kind xk) and, for the
// binary ones, regs[c] (kind yk), into regs[a] (kind dk).
type dynOp uint8

const (
	dynBinary   dynOp = iota // binaryOp(tok)
	dynNeg                   // negValue
	dynTruthy                // boolVal(Truthy)
	dynMin                   // minValue
	dynMax                   // maxValue
	dynAbs                   // absValue
	dynAssign                // applyOp(int regs[b], asg, regs[c]), into int regs[a]
	dynDivGuard              // the /= guard on a kDyn rhs in regs[b]; writes nothing
)

type dynPayload struct {
	op         dynOp
	tok        parc.TokKind
	asg        parc.AssignOp
	xk, yk, dk kind
}

// fnCode is one compiled function. Registers are laid out as
// [named scalars | constant pool | temporaries]: the constant pool holds
// every distinct literal word the body materializes, written once when a
// frame is first allocated and preserved across pooled reuse (release only
// clears the clearRegs named-scalar prefix to zero, which is both types'
// zero; temporaries are always written before they are read).
type fnCode struct {
	fn        *parc.FuncDecl
	idx       int // frame pool index
	ins       []instr
	nregs     int
	narrs     int
	poolBase  int32
	poolVals  []uint64
	clearRegs int
}

// progCode is the compiled form of a Program, cached on the Program via
// Artifact and shared by every Context that executes it.
type progCode struct {
	fns map[*parc.FuncDecl]*fnCode // fnCode.idx numbers them 0..len-1
	err error                      // the first function the compiler refused, if any
}

// codeKey names a Program's progCode in its Artifact memo.
type codeKey struct{}

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

	pool       map[uint64]int32 // literal word -> constant-pool register
	constSeen  map[uint64]bool
	constOrder []uint64
	firstTemp  int32

	labels []int32 // label id -> instruction index (patched at bind time)
	bound  int     // len(ins) when a label was last bound: the next instruction is a jump target
}

// compileFunc lowers a function in two passes: the first discovers the
// distinct literal words the body materializes, the second compiles for
// real with those words pinned in constant-pool registers, so literal
// references cost nothing in the instruction stream.
func compileFunc(f *parc.FuncDecl) (*fnCode, error) {
	scout := &funcCompiler{fn: f}
	if _, err := scout.compile(nil); err != nil {
		return nil, err
	}
	fc := &funcCompiler{fn: f}
	return fc.compile(scout.constOrder)
}

func (fc *funcCompiler) compile(poolVals []uint64) (*fnCode, error) {
	f := fc.fn
	fc.sp = int32(len(f.Scalars))
	fc.maxSp = fc.sp
	fc.bound = -1
	poolBase := fc.sp
	if len(poolVals) > 0 {
		fc.pool = make(map[uint64]int32, len(poolVals))
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
		clearRegs: len(f.Scalars),
	}, nil
}

func isJumpOp(o op) bool {
	switch o {
	case opJump, opJz, opSCAnd, opSCOr, opForCheck, opForNext, opDirDim:
		return true
	}
	return o >= opEqIJf && o <= opGeFJf
}

// errUncompilable marks a construct the compiler refuses; the program then
// does not run.
func errUncompilable(format string, args ...any) error {
	return fmt.Errorf("uncompilable: "+format, args...)
}

// constVal returns a register holding the literal word: the constant-pool
// register when one is assigned (written once per frame, no per-use
// instruction), else a freshly written temporary. Literal evaluation is
// charge-free in the tree-walker, so eliding the instruction moves no work
// charges across any observable event. On the discovery pass the word is
// recorded for the real pass's pool. An int and a float literal with the
// same bits share a register: the kind belongs to the use.
func (fc *funcCompiler) constVal(bits uint64, k kind) val {
	if r, ok := fc.pool[bits]; ok {
		return val{r, k}
	}
	if !fc.constSeen[bits] {
		if fc.constSeen == nil {
			fc.constSeen = make(map[uint64]bool)
		}
		fc.constSeen[bits] = true
		fc.constOrder = append(fc.constOrder, bits)
	}
	dst := fc.alloc()
	fc.emit(instr{op: opConst, a: dst, imm: bits})
	return val{dst, k}
}

func (fc *funcCompiler) alloc() int32 {
	r := fc.sp
	fc.sp++
	if fc.sp > fc.maxSp {
		fc.maxSp = fc.sp
	}
	return r
}

// allocKind allocates a temporary for a value of kind k: two registers for
// kDyn's bits and tag.
func (fc *funcCompiler) allocKind(k kind) int32 {
	r := fc.alloc()
	if k == kDyn {
		fc.alloc()
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

// producer returns the last instruction when it wrote the temporary r and
// the instruction about to be emitted would be a plain successor of it: no
// jump lands between them and no charges are pending. Nothing else reads an
// expression temporary but its one consumer, so that consumer may take over
// the producer.
func (fc *funcCompiler) producer(r int32) *instr {
	n := len(fc.ins)
	if n == 0 || r < fc.firstTemp || fc.bound == n || fc.pend != 0 {
		return nil
	}
	if in := &fc.ins[n-1]; in.a == r {
		return in
	}
	return nil
}

// retargetable reports whether an op's only register effect is writing
// regs[a] (kind int or float), so its destination can be renamed. Machine-
// visible side effects (an Access from a load, a builtin's rng update) are
// untouched by renaming the destination.
func retargetable(o op) bool {
	switch o {
	case opConst, opMov, opI2F, opF2I, opD2I, opD2F, opTruthyF, opTruthy, opNot,
		opNegI, opNegF, opModI, opBuiltin, opCall, opLoadArr, opLoadShared:
		return true
	}
	return o >= opAddI && o <= opGeF
}

// move assigns v to the named slot dst of kind k. The ubiquitous
//
//	temp = <op ...>
//	slot = temp
//
// becomes one instruction writing the slot directly when the kinds agree:
// the temporary has no other reader, and the store would host no charges
// and be no jump target (see producer).
func (fc *funcCompiler) move(dst int32, v val, k kind) {
	if v.k == k {
		if p := fc.producer(v.r); p != nil && retargetable(p.op) {
			p.a = dst
			return
		}
	}
	fc.convertInto(dst, v, k)
}

// convertInto writes v to dst as kind k (int or float): a move, or the
// conversion the tree-walker's AsInt/AsFloat/coerce performs.
func (fc *funcCompiler) convertInto(dst int32, v val, k kind) {
	o := opMov
	switch {
	case v.k == k:
	case k == kFloat && v.k == kInt:
		o = opI2F
	case k == kFloat:
		o = opD2F
	case v.k == kFloat:
		o = opF2I
	default:
		o = opD2I
	}
	fc.emit(instr{op: o, a: dst, b: v.r})
}

// convert returns v as kind k (int or float), in a new temporary unless it
// already is one.
func (fc *funcCompiler) convert(v val, k kind) val {
	if v.k == k {
		return v
	}
	dst := fc.alloc()
	fc.convertInto(dst, v, k)
	return val{dst, k}
}

// truth returns an int register that is nonzero exactly when v is truthy.
func (fc *funcCompiler) truth(v val) int32 {
	switch v.k {
	case kFloat:
		dst := fc.alloc()
		fc.emit(instr{op: opTruthyF, a: dst, b: v.r})
		return dst
	case kDyn:
		dst := fc.alloc()
		fc.emit(instr{op: opDyn, a: dst, b: v.r, aux: &dynPayload{op: dynTruthy, xk: kDyn, dk: kInt}})
		return dst
	}
	return v.r
}

// emitJz branches to label l when v is falsy. A comparison whose result is
// the temporary tested here fuses with the branch into one compare-and-
// branch; the charge order is preserved because the comparison's charges
// precede the test in both forms.
func (fc *funcCompiler) emitJz(v val, l int32) {
	r := fc.truth(v)
	n := len(fc.ins)
	if n > 0 && r >= fc.firstTemp && fc.bound != n {
		if p := &fc.ins[n-1]; isCompare(p.op) && p.a == r && int(p.nwork)+fc.pend <= 0xFFFF {
			p.op += cmpFused
			p.nwork += uint16(fc.pend)
			fc.pend = 0
			p.n = l
			return
		}
	}
	fc.emit(instr{op: opJz, a: r, n: l})
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
	fc.bound = len(fc.ins)
}

func (fc *funcCompiler) block(b *parc.Block) error {
	for _, s := range b.Stmts {
		if err := fc.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (fc *funcCompiler) slotKind(slot int32) kind { return kindOf(fc.fn.Scalars[slot]) }

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
			fc.emit(instr{op: opAllocArr, aux: &allocPayload{arr: int32(n.Slot - 1), size: size}})
			return nil
		}
		if n.Init != nil {
			v, err := fc.expr(n.Init)
			if err != nil {
				return err
			}
			fc.convertInto(int32(n.Slot-1), v, kindOf(n.Base))
			return nil
		}
		fc.emit(instr{op: opConst, a: int32(n.Slot - 1)}) // both types' zero
		return nil

	case *parc.AssignStmt:
		return fc.assign(n)

	case *parc.IfStmt:
		v, err := fc.expr(n.Cond)
		if err != nil {
			return err
		}
		end := fc.newLabel()
		if n.Else == nil {
			fc.emitJz(v, end)
			if err := fc.block(n.Then); err != nil {
				return err
			}
			fc.bind(end)
			return nil
		}
		els := fc.newLabel()
		fc.emitJz(v, els)
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
		v, err := fc.expr(n.Cond)
		if err != nil {
			return err
		}
		fc.emitJz(v, exit)
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
		from, err := fc.intExpr(n.From)
		if err != nil {
			return err
		}
		to, err := fc.intExpr(n.To)
		if err != nil {
			return err
		}
		step := int32(-1)
		if n.Step != nil {
			if step, err = fc.intExpr(n.Step); err != nil {
				return err
			}
		}
		if n.VarSlot == 0 {
			return errUncompilable("loop counter %q has no slot", n.Var)
		}
		// The counter is an int; a counter slot declared float receives it
		// converted at the top of each iteration.
		slot := int32(n.VarSlot - 1)
		ctr := slot
		if fc.slotKind(slot) != kInt {
			ctr = fc.alloc()
		}
		fc.emit(instr{op: opForPrep, aux: &forPayload{varName: n.Var, from: from, to: to, step: step, base: base}})
		head := fc.newLabel()
		exit := fc.newLabel()
		fc.bind(head)
		fc.emit(instr{op: opForCheck, a: base, b: ctr, n: exit})
		if ctr != slot {
			fc.convertInto(slot, val{ctr, kInt}, kFloat)
		}
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
		fc.emit(instr{op: opForNext, a: base, b: ctr, n: head})
		fc.bind(exit)
		return nil

	case *parc.BarrierStmt:
		fc.emit(instr{op: opBarrier})
		return nil

	case *parc.LockStmt:
		r, err := fc.intExpr(n.LockID)
		if err != nil {
			return err
		}
		fc.emit(instr{op: opLock, a: r})
		return nil

	case *parc.UnlockStmt:
		r, err := fc.intExpr(n.LockID)
		if err != nil {
			return err
		}
		fc.emit(instr{op: opUnlock, a: r})
		return nil

	case *parc.ReturnStmt:
		if n.Value == nil {
			fc.emit(instr{op: opRet, a: -1, n: 1})
			return nil
		}
		v, err := fc.expr(n.Value)
		if err != nil {
			return err
		}
		r := int32(-1) // a void function's return discards the value
		if res := fc.fn.Result; res != nil {
			r = fc.convert(v, kindOf(*res)).r
		}
		fc.emit(instr{op: opRet, a: r, n: 1})
		return nil

	case *parc.ExprStmt:
		_, err := fc.expr(n.Call)
		return err

	case *parc.PrintStmt:
		args := make([]val, len(n.Args))
		for i, a := range n.Args {
			v, err := fc.expr(a)
			if err != nil {
				return err
			}
			args[i] = v
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

// intExpr compiles an expression the tree-walker takes AsInt.
func (fc *funcCompiler) intExpr(e parc.Expr) (int32, error) {
	v, err := fc.expr(e)
	if err != nil {
		return 0, err
	}
	return fc.convert(v, kInt).r, nil
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
		lo, err := fc.intExpr(ix.Lo)
		if err != nil {
			return err
		}
		hi := int32(-1)
		if ix.Hi != nil {
			if hi, err = fc.intExpr(ix.Hi); err != nil {
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
	var dk kind
	var arr *parc.VarDeclStmt
	switch lv.Ref {
	case parc.RefLocal:
		dk = fc.slotKind(int32(lv.Slot))
	case parc.RefShared:
		dk = kindOf(lv.Shared.Base)
	case parc.RefArray:
		if arr = fc.arrayDecl(lv.Name, int32(lv.Slot)); arr == nil {
			return errUncompilable("array %q has no declaration", lv.Name)
		}
		dk = kindOf(arr.Base)
	default:
		return errUncompilable("assignment to %q was not checked", lv.Name)
	}

	// The right-hand side as the combination takes it: of the destination's
	// type for a plain store or a float destination. An int destination
	// takes a float rhs as is (the op runs in floats and truncates) and a
	// kDyn one as is (opDyn, or asgDyn).
	if n.Op == parc.OpSet || dk == kFloat {
		rhs = fc.convert(rhs, dk)
	}

	// The /= integer-zero guard runs after the RHS evaluation but before
	// any index evaluation, so it is emitted first. A float on either side
	// makes the division IEEE.
	if n.Op == parc.OpDiv && dk == kInt {
		switch rhs.k {
		case kInt:
			fc.emit(instr{op: opDivGuard, b: rhs.r})
		case kDyn:
			fc.emit(instr{op: opDyn, b: rhs.r, aux: &dynPayload{op: dynDivGuard, xk: kDyn}})
		}
	}

	switch lv.Ref {
	case parc.RefLocal:
		fc.assignLocal(int32(lv.Slot), dk, n.Op, rhs)
		return nil

	case parc.RefArray:
		slot := int32(lv.Slot)
		fc.emit(instr{op: opArrNil, a: slot, aux: &failPayload{msg: fmt.Sprintf("undefined variable %q", lv.Name)}})
		ma := &memAccess{name: lv.Name, arr: slot, asg: asgFor(n.Op, dk, rhs.k), assignOp: n.Op}
		if err := fc.indices(ma, arr.DimSizes, lv.Indices); err != nil {
			return err
		}
		fc.emitAccess(instr{op: opAsgArr, b: rhs.r, aux: ma}, ma)
		return nil
	}

	decl := lv.Shared
	ma := &memAccess{name: decl.Name, decl: decl, asg: asgFor(n.Op, dk, rhs.k), assignOp: n.Op}
	if err := fc.indices(ma, decl.DimSizes, lv.Indices); err != nil {
		return err
	}
	fc.emitAccess(instr{op: opAsgShared, b: rhs.r, aux: ma}, ma)
	return nil
}

// assignOps maps a compound assignment to its int arithmetic op.
var assignOps = map[parc.AssignOp]op{parc.OpAdd: opAddI, parc.OpSub: opSubI, parc.OpMul: opMulI, parc.OpDiv: opDivI}

// assignLocal lowers slot op= rhs, rhs already converted as assign says.
func (fc *funcCompiler) assignLocal(slot int32, dk kind, aop parc.AssignOp, rhs val) {
	if aop == parc.OpSet {
		fc.move(slot, rhs, dk)
		return
	}
	o := assignOps[aop]
	switch {
	case rhs.k == kDyn:
		fc.emit(instr{op: opDyn, a: slot, b: slot, c: rhs.r, aux: &dynPayload{op: dynAssign, asg: aop, xk: kInt, yk: kDyn, dk: kInt}})
	case dk == kInt && rhs.k == kFloat:
		t := fc.convert(val{slot, kInt}, kFloat)
		fc.emit(instr{op: o + arithFloat, a: t.r, b: t.r, c: rhs.r})
		fc.convertInto(slot, t, kInt)
	case dk == kFloat:
		fc.emit(instr{op: o + arithFloat, a: slot, b: slot, c: rhs.r})
	default:
		fc.emit(instr{op: o, a: slot, b: slot, c: rhs.r})
	}
}

// asgFor picks an element assignment's combination; rk is the rhs's kind
// after assign's conversion.
func asgFor(aop parc.AssignOp, dk, rk kind) asgOp {
	if aop == parc.OpSet {
		return asgSet
	}
	i := asgOp(aop - parc.OpAdd)
	switch {
	case dk == kFloat:
		return asgAddF + i
	case rk == kFloat:
		return asgAddX + i
	case rk == kDyn:
		return asgDyn
	}
	return asgAddI + i
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
		r, err := fc.intExpr(ixe)
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
	ma.work = uint64(ma.postWork)
	for _, t := range ma.terms {
		ma.work += uint64(t.nwork)
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

// expr compiles an expression and returns the register holding its value
// and its kind. Named scalars are returned in place (no copy); everything
// else lands in a temporary above the statement's register mark.
func (fc *funcCompiler) expr(e parc.Expr) (val, error) {
	switch n := e.(type) {
	case *parc.IntLit:
		return fc.constVal(uint64(n.Value), kInt), nil

	case *parc.FloatLit:
		return fc.constVal(FloatVal(n.Value).Bits(), kFloat), nil

	case *parc.VarRef:
		return fc.varRef(n)

	case *parc.IndexExpr:
		return fc.indexExpr(n)

	case *parc.CallExpr:
		return fc.callExpr(n)

	case *parc.UnaryExpr:
		x, err := fc.expr(n.X)
		if err != nil {
			return val{}, err
		}
		fc.charge(1)
		switch n.Op {
		case parc.TokMinus:
			switch x.k {
			case kInt:
				return fc.emitOp(opNegI, kInt, x.r, 0), nil
			case kFloat:
				return fc.emitOp(opNegF, kFloat, x.r, 0), nil
			}
			return fc.emitDyn(dynPayload{op: dynNeg, xk: kDyn, dk: kDyn}, x.r, 0), nil
		case parc.TokNot:
			return fc.emitOp(opNot, kInt, fc.truth(x), 0), nil
		}
		return val{}, errUncompilable("bad unary operator")

	case *parc.BinaryExpr:
		return fc.binary(n)
	}
	return val{}, errUncompilable("cannot compile %T", e)
}

// emitOp writes op(b, c) to a new temporary of kind k.
func (fc *funcCompiler) emitOp(o op, k kind, b, c int32) val {
	dst := fc.alloc()
	fc.emit(instr{op: o, a: dst, b: b, c: c})
	return val{dst, k}
}

// emitDyn emits an opDyn into a new temporary of kind p.dk.
func (fc *funcCompiler) emitDyn(p dynPayload, b, c int32) val {
	dst := fc.allocKind(p.dk)
	fc.emit(instr{op: opDyn, a: dst, b: b, c: c, aux: &p})
	return val{dst, p.dk}
}

func (fc *funcCompiler) varRef(n *parc.VarRef) (val, error) {
	switch n.Ref {
	case parc.RefLocal:
		return val{int32(n.Slot), fc.slotKind(int32(n.Slot))}, nil
	case parc.RefConst:
		return fc.constVal(uint64(n.Const), kInt), nil
	case parc.RefShared:
		dst := fc.alloc()
		fc.emit(instr{op: opLoadShared, a: dst, aux: &memAccess{name: n.Name, decl: n.Shared}})
		return val{dst, kindOf(n.Shared.Base)}, nil
	}
	return val{}, errUncompilable("reference to %q was not checked", n.Name)
}

func (fc *funcCompiler) indexExpr(n *parc.IndexExpr) (val, error) {
	switch n.Ref {
	case parc.RefArray:
		arrSlot := int32(n.Slot)
		arr := fc.arrayDecl(n.Name, arrSlot)
		if arr == nil {
			return val{}, errUncompilable("array %q has no declaration", n.Name)
		}
		// The tree-walker checks "never allocated" before evaluating
		// subscripts.
		fc.emit(instr{op: opArrNil, a: arrSlot, aux: &failPayload{msg: fmt.Sprintf("%q is not an array", n.Name)}})
		ma := &memAccess{name: n.Name, arr: arrSlot}
		if err := fc.indices(ma, arr.DimSizes, n.Indices); err != nil {
			return val{}, err
		}
		dst := fc.alloc()
		fc.emitAccess(instr{op: opLoadArr, a: dst, aux: ma}, ma)
		return val{dst, kindOf(arr.Base)}, nil

	case parc.RefShared:
		decl := n.Shared
		ma := &memAccess{name: decl.Name, decl: decl}
		if err := fc.indices(ma, decl.DimSizes, n.Indices); err != nil {
			return val{}, err
		}
		dst := fc.alloc()
		fc.emitAccess(instr{op: opLoadShared, a: dst, aux: ma}, ma)
		return val{dst, kindOf(decl.Base)}, nil
	}
	return val{}, errUncompilable("reference to %q was not checked", n.Name)
}

func (fc *funcCompiler) callExpr(n *parc.CallExpr) (val, error) {
	id, f := n.Builtin, n.Fn
	if id == parc.BuiltinNone && f == nil {
		return val{}, errUncompilable("call to %q was not checked", n.Name)
	}
	if id != parc.BuiltinNone {
		return fc.builtin(n)
	}
	args := make([]int32, len(n.Args))
	for i, a := range n.Args {
		v, err := fc.expr(a)
		if err != nil {
			return val{}, err
		}
		args[i] = fc.convert(v, kindOf(f.Params[i].Base)).r
	}
	k := kInt // a void function's call reads as int 0
	if f.Result != nil {
		k = kindOf(*f.Result)
	}
	dst := fc.alloc()
	fc.emit(instr{op: opCall, a: dst, aux: &callPayload{fn: f, args: args}})
	return val{dst, k}, nil
}

// builtin lowers a builtin call to its typed form: min, max and abs pick
// the variant of their arguments' kind (opDyn when that is not one kind),
// the float functions take their argument converted, and float() and int()
// are conversions.
func (fc *funcCompiler) builtin(n *parc.CallExpr) (val, error) {
	if len(n.Args) > 2 {
		return val{}, errUncompilable("builtin %q with %d args", n.Name, len(n.Args))
	}
	var args [2]val
	for i, a := range n.Args {
		v, err := fc.expr(a)
		if err != nil {
			return val{}, err
		}
		args[i] = v
	}
	fc.charge(1)
	x, y := args[0], args[1]
	switch n.Builtin {
	case parc.BuiltinPid:
		return fc.emitBuiltin(vbPid, kInt, -1, -1), nil
	case parc.BuiltinNprocs:
		return fc.emitBuiltin(vbNprocs, kInt, -1, -1), nil
	case parc.BuiltinMin, parc.BuiltinMax:
		isMin := n.Builtin == parc.BuiltinMin
		if x.k != y.k || x.k == kDyn {
			p := dynPayload{op: dynMax, xk: x.k, yk: y.k, dk: kDyn}
			if isMin {
				p.op = dynMin
			}
			return fc.emitDyn(p, x.r, y.r), nil
		}
		b := vbMaxI
		if isMin {
			b = vbMinI
		}
		if x.k == kFloat {
			b++ // the float variant follows the int one
		}
		return fc.emitBuiltin(b, x.k, x.r, y.r), nil
	case parc.BuiltinAbs:
		switch x.k {
		case kInt:
			return fc.emitBuiltin(vbAbsI, kInt, x.r, -1), nil
		case kFloat:
			return fc.emitBuiltin(vbAbsF, kFloat, x.r, -1), nil
		}
		return fc.emitDyn(dynPayload{op: dynAbs, xk: kDyn, dk: kDyn}, x.r, -1), nil
	case parc.BuiltinSqrt:
		return fc.emitBuiltin(vbSqrt, kFloat, fc.convert(x, kFloat).r, -1), nil
	case parc.BuiltinSin:
		return fc.emitBuiltin(vbSin, kFloat, fc.convert(x, kFloat).r, -1), nil
	case parc.BuiltinCos:
		return fc.emitBuiltin(vbCos, kFloat, fc.convert(x, kFloat).r, -1), nil
	case parc.BuiltinFloor:
		return fc.emitBuiltin(vbFloor, kFloat, fc.convert(x, kFloat).r, -1), nil
	case parc.BuiltinFloat:
		return fc.convert(x, kFloat), nil
	case parc.BuiltinInt:
		return fc.convert(x, kInt), nil
	case parc.BuiltinRnd:
		return fc.emitBuiltin(vbRnd, kFloat, -1, -1), nil
	case parc.BuiltinRndseed:
		return fc.emitBuiltin(vbRndseed, kInt, fc.convert(x, kInt).r, -1), nil
	}
	return val{}, errUncompilable("unknown builtin %q", n.Name)
}

// emitBuiltin writes builtin b of x and y to a new temporary of kind k.
func (fc *funcCompiler) emitBuiltin(b int32, k kind, x, y int32) val {
	dst := fc.alloc()
	fc.emit(instr{op: opBuiltin, a: dst, b: x, c: y, n: b})
	return val{dst, k}
}

func (fc *funcCompiler) binary(n *parc.BinaryExpr) (val, error) {
	if n.Op == parc.TokAndAnd || n.Op == parc.TokOrOr {
		x, err := fc.expr(n.X)
		if err != nil {
			return val{}, err
		}
		fc.charge(1)
		xr := fc.truth(x)
		dst := fc.alloc()
		end := fc.newLabel()
		sc := opSCAnd
		if n.Op == parc.TokOrOr {
			sc = opSCOr
		}
		fc.emit(instr{op: sc, a: dst, b: xr, n: end})
		y, err := fc.expr(n.Y)
		if err != nil {
			return val{}, err
		}
		fc.emit(instr{op: opTruthy, a: dst, b: fc.truth(y)})
		fc.bind(end)
		return val{dst, kInt}, nil
	}

	x, err := fc.expr(n.X)
	if err != nil {
		return val{}, err
	}
	y, err := fc.expr(n.Y)
	if err != nil {
		return val{}, err
	}
	fc.charge(1)
	float := x.k == kFloat || y.k == kFloat
	dyn := x.k == kDyn || y.k == kDyn
	if n.Op == parc.TokPercent {
		switch {
		case float:
			dst := fc.alloc()
			fc.emit(instr{op: opFail, aux: &failPayload{msg: "% requires integer operands"}})
			return val{dst, kInt}, nil
		case dyn:
			return fc.emitDyn(dynPayload{op: dynBinary, tok: n.Op, xk: x.k, yk: y.k, dk: kInt}, x.r, y.r), nil
		}
		return fc.emitOp(opModI, kInt, x.r, y.r), nil
	}
	o, arith := arithOps[n.Op]
	if !arith {
		var ok bool
		if o, ok = cmpOps[n.Op]; !ok {
			return val{}, errUncompilable("bad binary operator")
		}
	}
	rk := kInt // what the operation yields
	switch {
	case float:
		// A float operand makes the operation a float one, whatever the
		// other's kind.
		x, y = fc.convert(x, kFloat), fc.convert(y, kFloat)
		if arith {
			rk = kFloat
			o += arithFloat
		} else {
			o += cmpFloat
		}
	case dyn:
		if arith {
			rk = kDyn
		}
		return fc.emitDyn(dynPayload{op: dynBinary, tok: n.Op, xk: x.k, yk: y.k, dk: rk}, x.r, y.r), nil
	}
	return fc.emitOp(o, rk, x.r, y.r), nil
}
