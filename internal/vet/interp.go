package vet

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"

	"cachier/internal/analysis"
	"cachier/internal/parc"
)

// The abstract interpreter runs main() once per node with pid() bound to a
// concrete id. SPMD partition arithmetic ((pid()%P)*BS, N/nprocs()*pid())
// then folds to per-node constants, and only genuine per-iteration or
// data-dependent quantities stay abstract, as strided intervals.
//
// Loops with small concrete trip counts are enumerated exactly (this is
// what keeps epoch counting precise for time-step loops containing
// barriers); other loops bind their variable to the strided interval of
// the bounds and run the body to a widened fixpoint, then once more with
// event recording on. Barrier-carrying loops that cannot be enumerated get
// two recording passes, so accesses before and after an in-loop barrier
// still meet in a shared epoch (the cross-iteration adjacency).

// Tunables. Enumeration limits trade precision for event volume; the fuel
// bounds total work on adversarial (fuzzed) inputs.
const (
	enumLimit        = 8
	barrierEnumLimit = 64
	widenAfter       = 3
	fixCap           = 40
	maxCallDepth     = 8
	maxFuel          = 400000
)

type eventKind uint8

const (
	evAccess eventKind = iota
	evAnn
	evBarrier
	// Scheduler-visible events recorded only in inference mode: lock
	// operations, prints, and local-work charges are context-switch points
	// in the simulator, so a faithful static replay of its schedule needs
	// them in the stream.
	evLock
	evUnlock
	evPrint
	evWork
)

// workFlushLimit mirrors the interpreter's local-work flush boundary
// (interp.workFlushLimit): pending unit charges are reported to the
// machine — a context-switch point — when they reach this many cycles.
const workFlushLimit = 512

// event is one element of a node's abstract execution stream. It names
// what it touched by pointer and integer only; the source text and position
// of an access are read off its AST node when a finding reports them.
type event struct {
	kind    eventKind
	write   bool  // for evAccess
	variant bool  // dims depend on an abstract (non-constant) value
	locks   int32 // interned set of concretely held locks (vetter.lockSets)
	epoch   int32
	stmtID  int32
	encStmt int32        // enclosing statement's ID — the VM's pc for this access
	iterCtx int32        // which loop-body instance produced it
	ann     parc.AnnKind // for evAnn
	decl    *parc.SharedDecl
	// ref is the access's or annotation's AST node: *parc.VarRef,
	// *parc.IndexExpr, *parc.LValue or *parc.CICOStmt.
	ref    any
	dims   []si
	lockID int64  // for evLock/evUnlock
	work   uint64 // for evWork: local cycles reported to the machine
}

// position is where the source names the access or annotation.
func (ev *event) position() parc.Pos {
	switch n := ev.ref.(type) {
	case *parc.LValue:
		return n.Pos
	case interface{ Position() parc.Pos }:
		return n.Position()
	}
	return parc.Pos{}
}

// text renders the access or annotation as the source names it: A[i][j-1],
// a shared scalar's name, or an annotation's range.
func (ev *event) text() string {
	switch n := ev.ref.(type) {
	case *parc.VarRef:
		return n.Name
	case *parc.IndexExpr:
		return indexText(n.Name, n.Indices)
	case *parc.LValue:
		return indexText(n.Name, n.Indices)
	case *parc.CICOStmt:
		return parc.RangeRefString(n.Target)
	}
	return ""
}

func indexText(name string, idxs []parc.Expr) string {
	var b strings.Builder
	b.WriteString(name)
	for _, ix := range idxs {
		b.WriteByte('[')
		b.WriteString(parc.ExprString(ix))
		b.WriteByte(']')
	}
	return b.String()
}

// aval is an abstract value: a float of unknown value, a strided-interval
// set of ints, or — transiently, within one expression or condition — an
// affine view coef*slot+off of a scalar frame slot. Affine views are never
// stored; they exist so conditions can refine the underlying slot and so
// indices like G[i][j-1] keep the slot's congruence.
type aval struct {
	isFloat bool
	aff     bool
	slot    int
	coef    int64
	off     int64
	set     si
}

func avC(c int64) aval { return aval{set: siConst(c)} }
func avInt(s si) aval  { return aval{set: s} }
func avTopInt() aval   { return aval{set: siTop} }
func avFloat() aval    { return aval{isFloat: true, set: siTop} }
func avAff(slot int, coef, off int64) aval {
	return aval{aff: true, slot: slot, coef: coef, off: off}
}

// state is one activation frame's abstract store plus path condition flags.
type state struct {
	fn   *parc.FuncDecl
	vals []aval
	dead bool // path proven unreachable
	ret  bool // function has returned on this path
}

func newState(fn *parc.FuncDecl) *state {
	st := &state{fn: fn, vals: make([]aval, len(fn.Scalars))}
	// Frame slots start zeroed, matching the interpreter's zero-initialized
	// frames.
	for i := range st.vals {
		st.vals[i] = avC(0)
	}
	return st
}

func (st *state) clone() *state {
	c := *st
	c.vals = append([]aval(nil), st.vals...)
	return &c
}

func (st *state) equal(o *state) bool {
	if st.dead != o.dead || st.ret != o.ret {
		return false
	}
	for i := range st.vals {
		if st.vals[i] != o.vals[i] {
			return false
		}
	}
	return true
}

// joinState merges two path states; a finished path (returned or dead)
// contributes nothing to the continuation.
func joinState(a, b *state) *state {
	if a.dead || a.ret {
		if b.dead || b.ret {
			return a
		}
		return b
	}
	if b.dead || b.ret {
		return a
	}
	for i := range a.vals {
		a.vals[i] = joinAval(a.vals[i], b.vals[i])
	}
	return a
}

func joinAval(a, b aval) aval {
	if a == b {
		return a
	}
	if a.isFloat || b.isFloat {
		return avFloat()
	}
	return avInt(a.set.join(b.set))
}

func widenState(old, next *state) *state {
	if old.dead || old.ret || next.dead || next.ret {
		return next
	}
	for i := range next.vals {
		a, b := old.vals[i], next.vals[i]
		if a == b {
			continue
		}
		if a.isFloat || b.isFloat {
			next.vals[i] = avFloat()
			continue
		}
		next.vals[i] = avInt(a.set.widen(b.set))
	}
	return next
}

type retAgg struct {
	val aval
	has bool
}

// nodeRun is the abstract execution of main() on one node.
type nodeRun struct {
	v        *vetter
	node     int
	epoch    int
	depth    int
	suppress int // >0: re-evaluation (fixpoint/refinement); no events, no epoch advance
	fuel     int
	outOfGas bool
	*streamBuf
	iterCtx  int
	nextIter int
	locks    map[int64]int
	lockTop  int
	rets     []*retAgg
	lockSet  int32 // interned set of held locks; valid unless lockDirt
	lockDirt bool
	curStmt  int       // enclosing statement's ID, mirroring the VM's pc stamping
	pending  uint64    // unreported local work cycles (inference mode)
	infer    *inferRun // non-nil: trace-free inference mode (see infer.go)
}

// inferRun carries the inference-mode exactness state of one nodeRun. In inference mode the interpreter mirrors the bytecode VM:
// conditions short-circuit, while loops and large for loops are enumerated
// concretely, and every widening or unknown branch is recorded as a reason
// the event stream is an over-approximation rather than the VM's exact
// access sequence.
type inferRun struct {
	exact bool
	notes []string
}

// inexact marks the inference result approximate, keeping the first few
// distinct reasons for the summary's Notes.
func (r *nodeRun) inexact(pos parc.Pos, format string, args ...any) {
	if r.infer == nil {
		return
	}
	r.infer.exact = false
	if len(r.infer.notes) >= 8 {
		return
	}
	loc := pos.String()
	if !pos.IsValid() {
		loc = "<generated>"
	}
	note := fmt.Sprintf("node %d: %s: %s", r.node, loc, fmt.Sprintf(format, args...))
	if !slices.Contains(r.infer.notes, note) {
		r.infer.notes = append(r.infer.notes, note)
	}
}

// streamBuf is a node stream's storage: its events, the arena their element
// sets slice into, and the stack indexDims builds them on. It is dead once
// its pass ends, and release hands it to the next pass through streams.
type streamBuf struct {
	events []event
	dims   []si
	stack  []si
}

// streams pools stream storage. Storage above maxPooled events or sets
// (1.5 MB) is dropped, as fmt drops large printers, so that one Tomcatv
// inference (450 000 events a node) stays pinned for no later program.
var streams = sync.Pool{New: func() any { return new(streamBuf) }}

const maxPooled = 1 << 14

// newNodeRun starts node's run on pooled storage. Every node executes the
// same program, so the node before's (prev, nil for the first) stream sizes
// this one's when the pooled storage is smaller.
func newNodeRun(v *vetter, node int, prev *nodeRun) *nodeRun {
	r := &nodeRun{v: v, node: node, fuel: maxFuel, locks: make(map[int64]int)}
	r.streamBuf = streams.Get().(*streamBuf)
	if prev != nil && (cap(r.events) < len(prev.events) || cap(r.dims) < len(prev.dims)) {
		r.events, r.dims = make([]event, 0, len(prev.events)), make([]si, 0, len(prev.dims))
	}
	return r
}

// release clears b's events, so no AST pointer outlives the pass, and pools
// b unless it is too large to keep.
func (b *streamBuf) release() {
	clear(b.events)
	if cap(b.events) <= maxPooled && cap(b.dims) <= maxPooled {
		b.events, b.dims, b.stack = b.events[:0], b.dims[:0], b.stack[:0]
		streams.Put(b)
	}
}

func (r *nodeRun) run(main *parc.FuncDecl) {
	if main == nil {
		return
	}
	st := newState(main)
	agg := &retAgg{}
	r.rets = append(r.rets, agg)
	r.evalBlock(st, main.Body)
	r.flushWork() // mirror the interpreter's end-of-run flush of pending work
	r.rets = r.rets[:len(r.rets)-1]
	if r.outOfGas {
		r.v.add(Finding{
			Rule: RuleStructural, Severity: SevWarning, Epoch: -1,
			Nodes: [2]int{r.node, -1},
			Msg:   fmt.Sprintf("analysis budget exhausted on node %d; results may be incomplete", r.node),
		})
	}
}

func (r *nodeRun) spend() bool {
	r.fuel--
	if r.fuel <= 0 {
		r.outOfGas = true
		return true
	}
	return false
}

func (r *nodeRun) newIter() int {
	r.nextIter++
	return r.nextIter
}

func (r *nodeRun) emit(ev event) {
	if r.suppress > 0 {
		return
	}
	// The interpreter flushes pending local work before every machine call;
	// mirror that so the replay yields at the same points with the same
	// clocks. Annotation events stay out: inference runs on unannotated
	// sources, where they never reach the machine.
	if r.infer != nil && r.pending > 0 {
		switch ev.kind {
		case evAccess, evBarrier, evLock, evUnlock, evPrint:
			w := event{kind: evWork, work: r.pending, epoch: int32(r.epoch), iterCtx: int32(r.iterCtx), encStmt: int32(r.curStmt)}
			r.pending = 0
			r.events = append(r.events, w)
		}
	}
	ev.epoch = int32(r.epoch)
	ev.iterCtx = int32(r.iterCtx)
	ev.encStmt = int32(r.curStmt)
	r.events = append(r.events, ev)
}

// charge does what the interpreter's Context.work does with n cycles of
// work: add them to the pending count and, once that reaches
// workFlushLimit, report all of it in one Work call (and so a context-switch
// point in the simulator). Unit charges reach the limit exactly, so they
// report workFlushLimit each time; the call overhead of 2 can pass it and
// report one cycle more. Charging is inference-only and off during
// suppressed re-walks, which the concrete interpreter never performs.
func (r *nodeRun) charge(n uint64) {
	if r.infer == nil || r.suppress > 0 {
		return
	}
	if r.pending += n; r.pending >= workFlushLimit {
		r.flushWork()
	}
}

// flushWork reports any pending work, mirroring the interpreter's flush.
func (r *nodeRun) flushWork() {
	if r.infer == nil || r.suppress > 0 || r.pending == 0 {
		return
	}
	w := r.pending
	r.pending = 0
	r.emit(event{kind: evWork, work: w})
}

// runSnap is a rollback point for speculative concrete enumeration in
// inference mode: everything a loop-body evaluation can mutate besides the
// frame state itself.
type runSnap struct {
	st       *state
	events   int
	dims     int
	epoch    int
	curStmt  int
	lockTop  int
	lockSet  int32
	lockDirt bool
	locks    map[int64]int
	pending  uint64
}

func (r *nodeRun) snapshot(st *state) runSnap {
	return runSnap{
		st: st.clone(), events: len(r.events), dims: len(r.dims), epoch: r.epoch,
		curStmt: r.curStmt, lockTop: r.lockTop, lockSet: r.lockSet,
		lockDirt: r.lockDirt, locks: maps.Clone(r.locks), pending: r.pending,
	}
}

func (r *nodeRun) rollback(st *state, s runSnap) {
	*st = *s.st
	clear(r.events[s.events:])
	r.events, r.dims = r.events[:s.events], r.dims[:s.dims]
	r.epoch = s.epoch
	r.curStmt = s.curStmt
	r.lockTop = s.lockTop
	r.lockSet = s.lockSet
	r.lockDirt = s.lockDirt
	r.locks = s.locks
	r.pending = s.pending
}

// heldLocks returns the interned set of locks the node concretely holds.
func (r *nodeRun) heldLocks() int32 {
	if !r.lockDirt {
		return r.lockSet
	}
	r.lockDirt = false
	ids := make([]int64, 0, len(r.locks))
	for id, n := range r.locks {
		if n > 0 {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	r.lockSet = 0
	for _, id := range ids {
		r.lockSet = r.v.lockSets.add(r.lockSet, id)
	}
	return r.lockSet
}

func (r *nodeRun) structural(pos parc.Pos, format string, args ...any) {
	r.v.add(Finding{
		Rule: RuleStructural, Severity: SevInfo, Pos: pos, Epoch: -1,
		Nodes: [2]int{r.node, -1},
		Msg:   fmt.Sprintf(format, args...),
	})
}

// ---- frame slots (resolved by parc.Check) ----

func (r *nodeRun) store(st *state, slot int, a aval) {
	if a.aff {
		a = r.matv(st, a)
	}
	st.vals[slot] = a
}

// mat materializes an abstract value to its strided-interval set under the
// current state.
func (r *nodeRun) mat(st *state, a aval) si {
	if a.isFloat {
		return siTop
	}
	if !a.aff {
		return a.set
	}
	base := siTop
	if v := st.vals[a.slot]; !v.isFloat {
		base = v.set
	}
	return base.scale(a.coef).addConst(a.off)
}

func (r *nodeRun) matv(st *state, a aval) aval {
	if a.isFloat {
		return avFloat()
	}
	return avInt(r.mat(st, a))
}

func (r *nodeRun) matConst(st *state, a aval) (int64, bool) {
	s := r.mat(st, a)
	if !a.isFloat && s.isConst() {
		return s.lo, true
	}
	return 0, false
}

// ---- expressions ----

func (r *nodeRun) evalExpr(st *state, e parc.Expr) aval {
	if e == nil || r.spend() {
		return avTopInt()
	}
	switch n := e.(type) {
	case *parc.IntLit:
		return avC(n.Value)
	case *parc.FloatLit:
		return avFloat()
	case *parc.VarRef:
		return r.varRef(st, n)
	case *parc.IndexExpr:
		return r.indexExpr(st, n)
	case *parc.CallExpr:
		return r.call(st, n)
	case *parc.UnaryExpr:
		if n.Op == parc.TokMinus {
			a := r.evalExpr(st, n.X)
			r.charge(1)
			return r.negVal(st, a)
		}
		// Logical not: !x is x == 0.
		t := r.truth(st, n.X)
		r.charge(1)
		return triVal(notTri(t))
	case *parc.BinaryExpr:
		return r.binary(st, n)
	}
	return avTopInt()
}

func (r *nodeRun) varRef(st *state, n *parc.VarRef) aval {
	switch n.Ref {
	case parc.RefConst:
		return avC(n.Const)
	case parc.RefLocal:
		return r.localVal(st, n.Slot)
	case parc.RefShared:
		return r.sharedScalar(n)
	}
	return avTopInt()
}

func (r *nodeRun) localVal(st *state, slot int) aval {
	v := st.vals[slot]
	if v.isFloat {
		return v
	}
	if v.set.isConst() {
		return v
	}
	// Non-constant int slot: hand out an affine view so conditions refine
	// the slot and index arithmetic keeps its congruence.
	return avAff(slot, 1, 0)
}

func (r *nodeRun) sharedScalar(n *parc.VarRef) aval {
	decl := n.Shared
	if r.suppress == 0 {
		r.emit(event{kind: evAccess, decl: decl, ref: n, locks: r.heldLocks()})
	}
	if decl.Base == parc.IntType {
		return avTopInt()
	}
	return avFloat()
}

func (r *nodeRun) indexExpr(st *state, n *parc.IndexExpr) aval {
	if decl := n.Shared; decl != nil {
		dims, variant := r.indexDims(st, decl, n.Indices)
		if r.suppress == 0 {
			r.emit(event{
				kind: evAccess, decl: decl, ref: n, dims: dims,
				locks: r.heldLocks(), variant: variant,
			})
		}
		if decl.Base == parc.IntType {
			return avTopInt()
		}
		return avFloat()
	}
	// Private array: evaluate indices for their side effects; the element
	// value itself is untracked.
	for _, ix := range n.Indices {
		r.charge(1)
		r.evalExpr(st, ix)
	}
	if b, ok := st.fn.Bindings[n.Name]; ok && b.Decl != nil && b.Decl.Base == parc.IntType {
		return avTopInt()
	}
	return avFloat()
}

// indexDims evaluates subscripts to per-dimension element sets, clamped to
// the array's bounds (a run that stays in bounds cannot touch elements
// outside them, and clamping keeps data-dependent Top indices readable).
// A suppressed re-walk records no event, so it only evaluates the
// subscripts for their effects.
func (r *nodeRun) indexDims(st *state, decl *parc.SharedDecl, idxs []parc.Expr) (dims []si, variant bool) {
	mark := len(r.stack)
	for d, ix := range idxs {
		r.charge(1) // interpreter's offset() charges one unit per dimension
		a := r.evalExpr(st, ix)
		if r.suppress > 0 {
			continue
		}
		s := r.mat(st, a)
		if d < len(decl.DimSizes) {
			s = s.clampMin(0).clampMax(int64(decl.DimSizes[d]) - 1)
		}
		if !s.isConst() {
			variant = true
		}
		r.stack = append(r.stack, s)
	}
	return r.popDims(mark), variant
}

// popDims moves the sets pushed on the stack since mark into the arena and
// returns them there, or nil in a suppressed re-walk, which records nothing.
// Sets are stacked first because a subscript can itself access an array
// (A[B[i]]), whose sets land in between.
func (r *nodeRun) popDims(mark int) []si {
	start, sets := len(r.dims), r.stack[mark:]
	if r.stack = r.stack[:mark]; r.suppress > 0 {
		return nil
	}
	r.dims = append(r.dims, sets...)
	return r.dims[start:len(r.dims):len(r.dims)]
}

func (r *nodeRun) negVal(st *state, a aval) aval {
	if a.isFloat {
		return a
	}
	if a.aff {
		return avAff(a.slot, -a.coef, -a.off)
	}
	return avInt(a.set.scale(-1))
}

func (r *nodeRun) binary(st *state, n *parc.BinaryExpr) aval {
	switch n.Op {
	case parc.TokEq, parc.TokNe, parc.TokLt, parc.TokLe, parc.TokGt, parc.TokGe,
		parc.TokAndAnd, parc.TokOrOr:
		return triVal(r.condTri(st, n))
	}
	a := r.evalExpr(st, n.X)
	b := r.evalExpr(st, n.Y)
	r.charge(1)
	return r.arith(st, n.Op, a, b)
}

func (r *nodeRun) arith(st *state, op parc.TokKind, a, b aval) aval {
	if a.isFloat || b.isFloat {
		return avFloat()
	}
	switch op {
	case parc.TokPlus:
		return r.addVal(st, a, b)
	case parc.TokMinus:
		return r.addVal(st, a, r.negVal(st, b))
	case parc.TokStar:
		if c, ok := r.matConst(st, b); ok && a.aff {
			return avAff(a.slot, a.coef*c, a.off*c).normAff()
		}
		if c, ok := r.matConst(st, a); ok && b.aff {
			return avAff(b.slot, b.coef*c, b.off*c).normAff()
		}
		return avInt(r.mat(st, a).mul(r.mat(st, b)))
	case parc.TokSlash:
		if c, ok := r.matConst(st, b); ok && c != 0 {
			return avInt(r.mat(st, a).divConst(c))
		}
		return avTopInt()
	case parc.TokPercent:
		if c, ok := r.matConst(st, b); ok && c > 0 {
			return avInt(r.mat(st, a).mod(c))
		}
		return avTopInt()
	}
	return avTopInt()
}

// normAff collapses an affine view whose coefficient vanished.
func (a aval) normAff() aval {
	if a.aff && a.coef == 0 {
		return avC(a.off)
	}
	return a
}

func (r *nodeRun) addVal(st *state, a, b aval) aval {
	if c, ok := r.matConst(st, b); ok {
		if a.aff {
			return avAff(a.slot, a.coef, a.off+c)
		}
		return avInt(a.set.addConst(c))
	}
	if c, ok := r.matConst(st, a); ok && b.aff {
		return avAff(b.slot, b.coef, b.off+c)
	}
	if a.aff && b.aff && a.slot == b.slot {
		return avAff(a.slot, a.coef+b.coef, a.off+b.off).normAff()
	}
	return avInt(r.mat(st, a).add(r.mat(st, b)))
}

func (r *nodeRun) call(st *state, n *parc.CallExpr) aval {
	if n.Builtin != parc.BuiltinNone {
		var buf [2]aval // no builtin takes more
		args := buf[:0]
		for _, a := range n.Args {
			args = append(args, r.evalExpr(st, a))
		}
		r.charge(1)
		return r.builtin(st, n.Builtin, args)
	}
	fn := n.Fn
	fst := newState(fn)
	for i, a := range n.Args {
		v := r.matv(st, r.evalExpr(st, a))
		if i < len(fn.Params) {
			fst.vals[i] = v
		}
	}
	r.charge(2) // call overhead, as the interpreter charges at the call site
	if r.depth >= maxCallDepth {
		r.structural(n.Position(), "call depth limit reached at %s(); analysis truncated", n.Name)
		r.inexact(n.Position(), "call depth limit reached at %s()", n.Name)
		return avTopInt()
	}
	r.depth++
	agg := &retAgg{}
	r.rets = append(r.rets, agg)
	saveStmt := r.curStmt
	r.evalBlock(fst, fn.Body)
	// The callee's statements stamped their own IDs; accesses evaluated in
	// the caller's statement after the call must carry the caller's pc again.
	r.curStmt = saveStmt
	r.rets = r.rets[:len(r.rets)-1]
	r.depth--
	if agg.has {
		return agg.val
	}
	if fn.Result != nil && *fn.Result == parc.FloatType {
		return avFloat()
	}
	return avTopInt()
}

func (r *nodeRun) builtin(st *state, id parc.BuiltinID, args []aval) aval {
	arg := func(i int) si {
		if i < len(args) {
			return r.mat(st, args[i])
		}
		return siTop
	}
	argFloat := func(i int) bool { return i < len(args) && args[i].isFloat }
	switch id {
	case parc.BuiltinPid:
		return avC(int64(r.node))
	case parc.BuiltinNprocs:
		return avC(int64(r.v.opts.Nprocs))
	case parc.BuiltinMin:
		if argFloat(0) || argFloat(1) {
			return avFloat()
		}
		return avInt(minSI(arg(0), arg(1)))
	case parc.BuiltinMax:
		if argFloat(0) || argFloat(1) {
			return avFloat()
		}
		return avInt(maxSI(arg(0), arg(1)))
	case parc.BuiltinAbs:
		if argFloat(0) {
			return avFloat()
		}
		return avInt(absSI(arg(0)))
	case parc.BuiltinFloat, parc.BuiltinSqrt, parc.BuiltinSin, parc.BuiltinCos,
		parc.BuiltinFloor, parc.BuiltinRnd:
		return avFloat()
	case parc.BuiltinInt:
		if len(args) == 1 && !args[0].isFloat {
			return args[0]
		}
		return avTopInt()
	}
	return avTopInt()
}

// minSI and maxSI over-approximate elementwise min/max: the result lies in
// the union's congruence grid, between the pointwise bound extremes.
func minSI(a, b si) si {
	if a.empty() || b.empty() {
		return siTop
	}
	return si{min(a.lo, b.lo), min(a.hi, b.hi), unionStride(a, b)}.norm()
}

func maxSI(a, b si) si {
	if a.empty() || b.empty() {
		return siTop
	}
	return si{max(a.lo, b.lo), max(a.hi, b.hi), unionStride(a, b)}.norm()
}

func unionStride(a, b si) int64 {
	d := a.lo - b.lo
	if d < 0 {
		d = -d
	}
	return gcd(gcd(a.stride, b.stride), d)
}

func absSI(a si) si {
	switch {
	case a.empty():
		return siTop
	case a.lo >= 0:
		return a
	case a.hi <= 0:
		return a.scale(-1)
	default:
		return si{0, max(-a.lo, a.hi), 1}.norm()
	}
}

// ---- conditions ----

type tri int

const (
	triUnknown tri = iota
	triTrue
	triFalse
)

func notTri(t tri) tri {
	switch t {
	case triTrue:
		return triFalse
	case triFalse:
		return triTrue
	}
	return triUnknown
}

func triVal(t tri) aval {
	switch t {
	case triTrue:
		return avC(1)
	case triFalse:
		return avC(0)
	}
	return avInt(siRange(0, 1, 1))
}

// truth evaluates an expression as a condition (nonzero is true).
func (r *nodeRun) truth(st *state, e parc.Expr) tri {
	a := r.evalExpr(st, e)
	if a.isFloat {
		return triUnknown
	}
	s := r.mat(st, a)
	if s.isConst() {
		if s.lo != 0 {
			return triTrue
		}
		return triFalse
	}
	if !s.member(0) {
		return triTrue
	}
	return triUnknown
}

// condTri evaluates a condition to a three-valued truth, recording any
// shared reads it performs.
func (r *nodeRun) condTri(st *state, e parc.Expr) tri {
	switch n := e.(type) {
	case *parc.UnaryExpr:
		if n.Op == parc.TokNot {
			t := r.condTri(st, n.X)
			r.charge(1)
			return notTri(t)
		}
	case *parc.BinaryExpr:
		switch n.Op {
		case parc.TokAndAnd:
			ta := r.condTri(st, n.X)
			r.charge(1) // the VM charges after the left operand only
			// Inference mode mirrors the VM's short-circuit: a concrete left
			// operand decides whether the right one is evaluated (and whether
			// its shared reads happen) at all. The race detector keeps the
			// non-short-circuit over-approximation.
			if r.infer != nil {
				switch ta {
				case triFalse:
					return triFalse
				case triTrue:
					return r.condTri(st, n.Y)
				}
				r.inexact(n.Position(), "left operand of && is not concrete; both sides recorded")
			}
			tb := r.condTri(st, n.Y)
			if ta == triFalse || tb == triFalse {
				return triFalse
			}
			if ta == triTrue && tb == triTrue {
				return triTrue
			}
			return triUnknown
		case parc.TokOrOr:
			ta := r.condTri(st, n.X)
			r.charge(1) // the VM charges after the left operand only
			if r.infer != nil {
				switch ta {
				case triTrue:
					return triTrue
				case triFalse:
					return r.condTri(st, n.Y)
				}
				r.inexact(n.Position(), "left operand of || is not concrete; both sides recorded")
			}
			tb := r.condTri(st, n.Y)
			if ta == triTrue || tb == triTrue {
				return triTrue
			}
			if ta == triFalse && tb == triFalse {
				return triFalse
			}
			return triUnknown
		case parc.TokEq, parc.TokNe, parc.TokLt, parc.TokLe, parc.TokGt, parc.TokGe:
			a := r.evalExpr(st, n.X)
			b := r.evalExpr(st, n.Y)
			r.charge(1)
			if a.isFloat || b.isFloat {
				return triUnknown
			}
			return cmpTri(n.Op, r.mat(st, a), r.mat(st, b))
		}
	}
	return r.truth(st, e)
}

func cmpTri(op parc.TokKind, a, b si) tri {
	if a.empty() || b.empty() {
		return triUnknown
	}
	switch op {
	case parc.TokEq:
		if a.isConst() && b.isConst() {
			if a.lo == b.lo {
				return triTrue
			}
			return triFalse
		}
		if !a.overlaps(b) {
			return triFalse
		}
		return triUnknown
	case parc.TokNe:
		return notTri(cmpTri(parc.TokEq, a, b))
	case parc.TokLt:
		if a.hi < b.lo {
			return triTrue
		}
		if a.lo >= b.hi {
			return triFalse
		}
	case parc.TokLe:
		if a.hi <= b.lo {
			return triTrue
		}
		if a.lo > b.hi {
			return triFalse
		}
	case parc.TokGt:
		return cmpTri(parc.TokLt, b, a)
	case parc.TokGe:
		return cmpTri(parc.TokLe, b, a)
	}
	return triUnknown
}

// refine narrows st under the assumption that e evaluates to want.
// Sub-expressions are re-evaluated with events suppressed, so refinement
// never double-records accesses.
func (r *nodeRun) refine(st *state, e parc.Expr, want bool) {
	r.suppress++
	r.refine1(st, e, want)
	r.suppress--
}

func (r *nodeRun) refine1(st *state, e parc.Expr, want bool) {
	switch n := e.(type) {
	case *parc.UnaryExpr:
		if n.Op == parc.TokNot {
			r.refine1(st, n.X, !want)
		}
	case *parc.BinaryExpr:
		switch n.Op {
		case parc.TokAndAnd:
			if want {
				r.refine1(st, n.X, true)
				r.refine1(st, n.Y, true)
			}
		case parc.TokOrOr:
			if !want {
				r.refine1(st, n.X, false)
				r.refine1(st, n.Y, false)
			}
		case parc.TokEq, parc.TokNe, parc.TokLt, parc.TokLe, parc.TokGt, parc.TokGe:
			op := n.Op
			if !want {
				op = negCmp(op)
			}
			r.refineCmpExpr(st, op, n.X, n.Y)
		}
	}
}

func negCmp(op parc.TokKind) parc.TokKind {
	switch op {
	case parc.TokEq:
		return parc.TokNe
	case parc.TokNe:
		return parc.TokEq
	case parc.TokLt:
		return parc.TokGe
	case parc.TokLe:
		return parc.TokGt
	case parc.TokGt:
		return parc.TokLe
	case parc.TokGe:
		return parc.TokLt
	}
	return op
}

func flipCmp(op parc.TokKind) parc.TokKind {
	switch op {
	case parc.TokLt:
		return parc.TokGt
	case parc.TokLe:
		return parc.TokGe
	case parc.TokGt:
		return parc.TokLt
	case parc.TokGe:
		return parc.TokLe
	}
	return op
}

func (r *nodeRun) refineCmpExpr(st *state, op parc.TokKind, x, y parc.Expr) {
	// Congruence pattern: (E % m) == c refines E's slot to a residue class
	// — the rule that proves red/black sweeps disjoint.
	if op == parc.TokEq {
		if r.refineMod(st, x, y) || r.refineMod(st, y, x) {
			return
		}
	}
	a := r.evalExpr(st, x)
	b := r.evalExpr(st, y)
	if a.isFloat || b.isFloat {
		return
	}
	if a.aff {
		if c, ok := r.matConst(st, b); ok {
			r.refineCmp(st, a, op, c)
			return
		}
	}
	if b.aff {
		if c, ok := r.matConst(st, a); ok {
			r.refineCmp(st, b, flipCmp(op), c)
		}
	}
}

func (r *nodeRun) refineMod(st *state, x, y parc.Expr) bool {
	me, ok := x.(*parc.BinaryExpr)
	if !ok || me.Op != parc.TokPercent {
		return false
	}
	m, mok := r.matConst(st, r.evalExpr(st, me.Y))
	if !mok || m <= 1 {
		return false
	}
	c, cok := r.matConst(st, r.evalExpr(st, y))
	if !cok {
		return false
	}
	inner := r.evalExpr(st, me.X)
	if !inner.aff {
		return false
	}
	// Solve coef*v + off ≡ c (mod m) for v.
	coef, rhs := inner.coef, c-inner.off
	d := gcd(coef, m)
	if ((rhs%d)+d)%d != 0 {
		st.dead = true
		return true
	}
	md := m / d
	if md == 1 {
		return true // every v satisfies it; no information
	}
	cd := ((coef/d)%md + md) % md
	_, p, _ := egcd(cd, md)
	v0 := ((rhs/d%md*(((p%md)+md)%md))%md + md) % md
	cur := st.vals[inner.slot]
	if cur.isFloat {
		return true
	}
	next := refineClass(cur.set, v0, md)
	if next.empty() {
		st.dead = true
		return true
	}
	r.store(st, inner.slot, avInt(next))
	return true
}

// refineClass intersects a set with the residue class v ≡ v0 (mod md).
// Only finite sets keep congruence information.
func refineClass(cur si, v0, md int64) si {
	if cur.empty() || cur.lo <= negInf || cur.hi >= posInf {
		return cur
	}
	lo := v0 + ceilDiv(cur.lo-v0, md)*md
	hi := v0 + floorDiv(cur.hi-v0, md)*md
	if lo > hi {
		return siEmpty
	}
	return cur.intersect(si{lo, hi, md}.norm())
}

// refineCmp narrows an affine view's slot under coef*v + off OP c.
func (r *nodeRun) refineCmp(st *state, a aval, op parc.TokKind, c int64) {
	cur := st.vals[a.slot]
	if cur.isFloat || a.coef == 0 {
		return
	}
	set := cur.set
	K := c - a.off
	switch op {
	case parc.TokEq:
		if K%a.coef != 0 {
			st.dead = true
			return
		}
		v := K / a.coef
		if !set.member(v) {
			st.dead = true
			return
		}
		r.store(st, a.slot, avC(v))
		return
	case parc.TokNe:
		if K%a.coef != 0 {
			return
		}
		v := K / a.coef
		switch {
		case set.isConst() && set.lo == v:
			st.dead = true
		case set.lo == v:
			r.store(st, a.slot, avInt(set.clampMin(v+1)))
		case set.hi == v:
			r.store(st, a.slot, avInt(set.clampMax(v-1)))
		}
		return
	}
	var upper, strictAdj bool
	switch op {
	case parc.TokLt:
		upper, strictAdj = true, true
	case parc.TokLe:
		upper = true
	case parc.TokGt:
		strictAdj = true
	case parc.TokGe:
	default:
		return
	}
	if strictAdj {
		if upper {
			K--
		} else {
			K++
		}
	}
	// coef*v <= K (upper) or coef*v >= K (!upper); dividing by a negative
	// coef flips the direction.
	var next si
	if a.coef > 0 {
		if upper {
			next = set.clampMax(floorDiv(K, a.coef))
		} else {
			next = set.clampMin(ceilDiv(K, a.coef))
		}
	} else {
		if upper {
			next = set.clampMin(ceilDivNeg(K, a.coef))
		} else {
			next = set.clampMax(floorDivNeg(K, a.coef))
		}
	}
	if next.empty() {
		st.dead = true
		return
	}
	r.store(st, a.slot, avInt(next))
}

// floorDiv and ceilDiv implement mathematical floor/ceil division for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) == (b < 0) {
		q++
	}
	return q
}

// ceilDivNeg computes ceil(a/b) for b < 0; floorDivNeg computes floor(a/b).
func ceilDivNeg(a, b int64) int64  { return -floorDiv(a, -b) }
func floorDivNeg(a, b int64) int64 { return -ceilDiv(a, -b) }

// ---- statements ----

func (r *nodeRun) evalStmt(st *state, s parc.Stmt) {
	if s == nil || st.dead || st.ret || r.spend() {
		return
	}
	// Mirror the VM's pc discipline: every access emitted while this
	// statement evaluates carries the statement's ID (loop back-edges reset
	// it to the loop's own ID before guard re-evaluation, as the VM does).
	r.curStmt = s.ID()
	// Statement-dispatch work charge; the interpreter's block-body walks
	// (function bodies, if-then, loop bodies) bypass dispatch and are
	// mirrored by evalBlock, which does not charge.
	r.charge(1)
	switch n := s.(type) {
	case *parc.Block:
		r.evalBlock(st, n)
	case *parc.VarDeclStmt:
		if n.Init != nil {
			r.store(st, n.Slot-1, r.evalExpr(st, n.Init))
		}
	case *parc.AssignStmt:
		r.assign(st, n)
	case *parc.IfStmt:
		r.evalIf(st, n)
	case *parc.WhileStmt:
		r.evalWhile(st, n)
	case *parc.ForStmt:
		r.evalFor(st, n)
	case *parc.BarrierStmt:
		r.emit(event{kind: evBarrier, stmtID: int32(n.ID())})
		if r.suppress == 0 {
			r.epoch++
		}
	case *parc.LockStmt:
		r.lockOp(st, n.LockID, 1, n.ID())
	case *parc.UnlockStmt:
		r.lockOp(st, n.LockID, -1, n.ID())
	case *parc.ReturnStmt:
		if n.Value != nil {
			v := r.matv(st, r.evalExpr(st, n.Value))
			agg := r.rets[len(r.rets)-1]
			if agg.has {
				agg.val = joinAval(agg.val, v)
			} else {
				agg.val, agg.has = v, true
			}
		}
		st.ret = true
	case *parc.ExprStmt:
		r.call(st, n.Call)
	case *parc.PrintStmt:
		for _, a := range n.Args {
			r.evalExpr(st, a)
		}
		if r.infer != nil {
			r.emit(event{kind: evPrint, stmtID: int32(n.ID())})
		}
	case *parc.CICOStmt:
		r.cico(st, n)
	}
}

// evalBlock walks a block's statements without the dispatch charge,
// mirroring the interpreter's execBlock (used for function bodies, if-then
// arms, and loop bodies, which are entered directly rather than dispatched).
func (r *nodeRun) evalBlock(st *state, b *parc.Block) {
	if b == nil {
		return
	}
	for _, c := range b.Stmts {
		if st.dead || st.ret || r.outOfGas {
			return
		}
		r.evalStmt(st, c)
	}
}

func (r *nodeRun) lockOp(st *state, idExpr parc.Expr, delta int, stmtID int) {
	id, ok := r.matConst(st, r.evalExpr(st, idExpr))
	if r.suppress > 0 {
		return
	}
	if !ok {
		r.inexact(idExpr.Position(), "lock id is not concrete")
		r.lockTop += delta
		return
	}
	if r.infer != nil {
		kind := evLock
		if delta < 0 {
			kind = evUnlock
		}
		r.emit(event{kind: kind, lockID: id, stmtID: int32(stmtID)})
	}
	r.locks[id] += delta
	if r.locks[id] < 0 {
		r.locks[id] = 0
	}
	r.lockDirt = true
}

func (r *nodeRun) assign(st *state, n *parc.AssignStmt) {
	rhs := r.evalExpr(st, n.RHS)
	lv := n.LHS
	switch lv.Ref {
	case parc.RefShared:
		dims, variant := r.indexDims(st, lv.Shared, lv.Indices)
		if r.suppress > 0 {
			return
		}
		base := event{
			decl: lv.Shared, ref: lv, dims: dims, locks: r.heldLocks(),
			stmtID: int32(n.ID()), variant: variant,
		}
		if n.Op != parc.OpSet {
			rd := base
			rd.kind, rd.write = evAccess, false
			r.emit(rd)
		}
		wr := base
		wr.kind, wr.write = evAccess, true
		r.emit(wr)
	case parc.RefLocal:
		var nv aval
		if n.Op == parc.OpSet {
			nv = rhs
		} else {
			nv = r.arith(st, assignTok(n.Op), st.vals[lv.Slot], rhs)
		}
		r.store(st, lv.Slot, nv)
	case parc.RefArray:
		for _, ix := range lv.Indices {
			r.charge(1)
			r.evalExpr(st, ix)
		}
	}
}

func assignTok(op parc.AssignOp) parc.TokKind {
	switch op {
	case parc.OpAdd:
		return parc.TokPlus
	case parc.OpSub:
		return parc.TokMinus
	case parc.OpMul:
		return parc.TokStar
	case parc.OpDiv:
		return parc.TokSlash
	}
	return parc.TokPlus
}

func (r *nodeRun) cico(st *state, n *parc.CICOStmt) {
	tgt := n.Target
	decl := tgt.Shared
	mark := len(r.stack)
	variant := false
	for d, ix := range tgt.Indices {
		lo := r.mat(st, r.evalExpr(st, ix.Lo))
		s := lo
		stable := lo.isConst()
		if ix.Hi != nil {
			hi := r.mat(st, r.evalExpr(st, ix.Hi))
			stable = stable && hi.isConst()
			if lo.empty() || hi.empty() {
				s = siEmpty
			} else {
				s = si{lo.lo, hi.hi, 1}.norm()
			}
		}
		if d < len(decl.DimSizes) {
			s = s.clampMin(0).clampMax(int64(decl.DimSizes[d]) - 1)
		}
		if !stable {
			variant = true
		}
		r.stack = append(r.stack, s)
	}
	r.emit(event{
		kind: evAnn, ann: n.Kind, decl: decl, ref: n, dims: r.popDims(mark),
		locks: r.heldLocks(), stmtID: int32(n.ID()), variant: variant,
	})
}

func (r *nodeRun) evalIf(st *state, n *parc.IfStmt) {
	switch r.condTri(st, n.Cond) {
	case triTrue:
		r.evalBlock(st, n.Then)
	case triFalse:
		r.evalStmt(st, n.Else)
	default:
		r.inexact(n.Position(), "branch condition is not concrete; both arms recorded")
		thenSt := st.clone()
		r.refine(thenSt, n.Cond, true)
		if !thenSt.dead {
			r.evalBlock(thenSt, n.Then)
		}
		elseSt := st // the then arm ran on a copy, and st is replaced below
		r.refine(elseSt, n.Cond, false)
		if !elseSt.dead && n.Else != nil {
			r.evalStmt(elseSt, n.Else)
		}
		*st = *joinState(thenSt, elseSt)
	}
}

func (r *nodeRun) evalWhile(st *state, n *parc.WhileStmt) {
	if r.infer != nil {
		if r.inferWhile(st, n) {
			return
		}
		r.inexact(n.Position(), "while guard does not stay concrete; loop approximated")
	}
	hasBar := r.v.info.ContainsBarrier(n)
	passes := 1
	if hasBar {
		// checkCFG already warned about the data-dependent epoch structure.
		passes = 2
	}
	cur := st.clone()
	r.suppress++
	for i := 0; i < fixCap; i++ {
		if r.outOfGas {
			break
		}
		if r.condTri(cur, n.Cond) == triFalse {
			break
		}
		body := cur.clone()
		r.refine(body, n.Cond, true)
		if body.dead {
			break
		}
		r.evalBlock(body, n.Body)
		next := joinState(cur.clone(), body)
		if i >= widenAfter {
			next = widenState(cur, next)
		}
		if next.equal(cur) {
			break
		}
		cur = next
	}
	r.suppress--
	r.curStmt = n.ID()          // guard reads carry the loop's pc
	t := r.condTri(cur, n.Cond) // record guard reads once
	if t != triFalse {
		save := r.iterCtx
		for p := 0; p < passes; p++ {
			body := cur.clone()
			r.refine(body, n.Cond, true)
			if body.dead {
				break
			}
			r.iterCtx = r.newIter()
			r.evalBlock(body, n.Body)
		}
		r.iterCtx = save
	}
	*st = *cur
	r.refine(st, n.Cond, false)
	st.dead = false // the abstract exit state may be vacuous; execution continues
}

// inferWhile enumerates a while loop the way the VM executes it: evaluate
// the guard (its shared reads are recorded with the loop statement's own ID,
// matching the VM's back-edge pc), run the body concretely, repeat. If any
// guard evaluation fails to fold to a constant, or the iteration cap is hit,
// the whole attempt — events, epoch count, lock state, frame — is rolled
// back and the caller falls to the abstract fixpoint. Reports success.
func (r *nodeRun) inferWhile(st *state, n *parc.WhileStmt) bool {
	snap := r.snapshot(st)
	save := r.iterCtx
	for i := 0; ; i++ {
		if i >= inferEnumLimit || r.outOfGas {
			r.rollback(st, snap)
			r.iterCtx = save
			return false
		}
		r.curStmt = n.ID()
		switch r.condTri(st, n.Cond) {
		case triFalse:
			r.iterCtx = save
			return true
		case triTrue:
		default:
			r.rollback(st, snap)
			r.iterCtx = save
			return false
		}
		r.iterCtx = r.newIter()
		r.evalBlock(st, n.Body)
		if st.dead || st.ret {
			r.iterCtx = save
			return true
		}
		r.charge(1) // back-edge charge, as the interpreter's loop issues after each body
	}
}

func (r *nodeRun) evalFor(st *state, n *parc.ForStmt) {
	slot := n.VarSlot - 1
	from := r.mat(st, r.evalExpr(st, n.From))
	to := r.mat(st, r.evalExpr(st, n.To))
	step, stepOK := int64(1), true
	if n.Step != nil {
		if s, ok := r.matConst(st, r.evalExpr(st, n.Step)); ok && s != 0 {
			step = s
		} else {
			stepOK = false
		}
	}
	hasBar := r.v.info.ContainsBarrier(n)
	if r.infer != nil {
		// Inference enumerates any loop with node-constant bounds, up to its
		// own (much larger) cap — including barrier loops: the VM needs no
		// cross-node trip agreement to execute, and a genuine divergence
		// surfaces later as a barrier-structure mismatch between the nodes'
		// summaries.
		if from.isConst() && to.isConst() && stepOK {
			trip := int64(0)
			if step > 0 && to.lo >= from.lo {
				trip = (to.lo-from.lo)/step + 1
			} else if step < 0 && from.lo >= to.lo {
				trip = (from.lo-to.lo)/(-step) + 1
			}
			if trip <= inferEnumLimit {
				r.enumFor(st, n, slot, from.lo, to.lo, step)
				return
			}
			r.inexact(n.Position(), "trip count %d exceeds the enumeration limit", trip)
		} else {
			r.inexact(n.Position(), "loop bounds are not node-constant; loop approximated")
		}
	}
	if hasBar {
		// Epoch alignment across nodes requires a node-independent trip
		// count, so only program-constant bounds may enumerate.
		if tc, ok := analysis.TripCount(n, r.v.prog.ConstVal); ok && tc <= barrierEnumLimit &&
			from.isConst() && to.isConst() && stepOK {
			r.enumFor(st, n, slot, from.lo, to.lo, step)
			return
		}
		r.structural(n.Position(), "cannot enumerate loop containing a barrier; epoch boundaries approximated")
		r.approxFor(st, n, slot, from, to, step, stepOK, 2)
		return
	}
	if from.isConst() && to.isConst() && stepOK {
		trip := int64(0)
		if step > 0 && to.lo >= from.lo {
			trip = (to.lo-from.lo)/step + 1
		} else if step < 0 && from.lo >= to.lo {
			trip = (from.lo-to.lo)/(-step) + 1
		}
		if trip <= enumLimit {
			r.enumFor(st, n, slot, from.lo, to.lo, step)
			return
		}
	}
	r.approxFor(st, n, slot, from, to, step, stepOK, 1)
}

func (r *nodeRun) enumFor(st *state, n *parc.ForStmt, slot int, from, to, step int64) {
	save := r.iterCtx
	v := from
	for ; (step > 0 && v <= to) || (step < 0 && v >= to); v += step {
		if st.dead || st.ret || r.outOfGas {
			break
		}
		r.store(st, slot, avC(v))
		r.iterCtx = r.newIter()
		r.evalBlock(st, n.Body)
		if !st.dead && !st.ret {
			r.charge(1) // back-edge charge, matching the interpreter's loop
		}
	}
	r.iterCtx = save
	if !st.dead && !st.ret {
		r.store(st, slot, avC(v))
	}
}

func (r *nodeRun) approxFor(st *state, n *parc.ForStmt, slot int, from, to si, step int64, stepOK bool, passes int) {
	varSI := loopVarSI(from, to, step, stepOK)
	if varSI.empty() {
		// Provably zero trips for this node.
		if !from.empty() {
			r.store(st, slot, avInt(from))
		}
		return
	}
	cur := st.clone()
	r.suppress++
	for i := 0; i < fixCap; i++ {
		if r.outOfGas {
			break
		}
		body := cur.clone()
		r.store(body, slot, avInt(varSI))
		r.evalBlock(body, n.Body)
		next := joinState(cur.clone(), body)
		if i >= widenAfter {
			next = widenState(cur, next)
		}
		if next.equal(cur) {
			break
		}
		cur = next
	}
	r.suppress--
	save := r.iterCtx
	for p := 0; p < passes; p++ {
		body := cur.clone()
		r.store(body, slot, avInt(varSI))
		if body.dead || body.ret {
			break
		}
		r.iterCtx = r.newIter()
		r.evalBlock(body, n.Body)
	}
	r.iterCtx = save
	*st = *cur
	st.dead, st.ret = false, false
	exit := varSI
	if stepOK {
		exit = varSI.join(varSI.addConst(step))
	}
	r.store(st, slot, avInt(exit))
}

// loopVarSI over-approximates the values a for-loop variable takes. The
// congruence anchor is the from bound, so stride-s partition loops stay in
// their residue class.
func loopVarSI(from, to si, step int64, stepOK bool) si {
	if from.empty() || to.empty() {
		return siTop
	}
	if !stepOK {
		return si{min(from.lo, to.lo), max(from.hi, to.hi), 1}.norm()
	}
	if step > 0 {
		if to.hi < from.lo {
			return siEmpty
		}
		g := step
		if !from.isConst() {
			g = gcd(step, max(from.stride, 1))
		}
		return si{from.lo, to.hi, g}.norm()
	}
	// Negative step.
	if from.hi < to.lo {
		return siEmpty
	}
	if from.isConst() && to.isConst() {
		lo := from.lo - (from.lo-to.lo)/(-step)*(-step)
		return si{lo, from.lo, -step}.norm()
	}
	return si{to.lo, from.hi, 1}.norm()
}
