package parc

import "sync"

// BaseType is a ParC scalar element type.
type BaseType int

// Base types.
const (
	IntType BaseType = iota
	FloatType
)

func (b BaseType) String() string {
	if b == IntType {
		return "int"
	}
	return "float"
}

// ElemSize is the size in bytes of every ParC array element (both int and
// float). With the simulator's 32-byte cache blocks this yields b = 4
// elements per block, matching the paper's Section 5 example.
const ElemSize = 8

// AnnKind identifies one of the five CICO annotations of the model
// (Larus et al. [13]): check-out exclusive, check-out shared, check-in,
// prefetch-exclusive, and prefetch-shared.
type AnnKind int

// CICO annotation kinds.
const (
	AnnCheckOutX AnnKind = iota
	AnnCheckOutS
	AnnCheckIn
	AnnPrefetchX
	AnnPrefetchS
)

func (k AnnKind) String() string {
	switch k {
	case AnnCheckOutX:
		return "check_out_x"
	case AnnCheckOutS:
		return "check_out_s"
	case AnnCheckIn:
		return "check_in"
	case AnnPrefetchX:
		return "prefetch_x"
	case AnnPrefetchS:
		return "prefetch_s"
	}
	return "cico(?)"
}

// IsCheckOut reports whether the annotation acquires a block (check-out or
// prefetch) rather than releasing one.
func (k AnnKind) IsCheckOut() bool { return k != AnnCheckIn }

// Program is a parsed ParC compilation unit. Statement IDs are unique within
// a Program and dense in [0, NumStmts), in source order; the simulator
// reports them as trace program counters. After Check nothing modifies a
// Program, so any number of runs may share one.
type Program struct {
	File    string // source file name when parsed with ParseFile, else ""
	Consts  []*ConstDecl
	Shareds []*SharedDecl
	Funcs   []*FuncDecl

	nextID int

	// Filled in by Check:
	ConstVal  map[string]int64
	SharedMap map[string]*SharedDecl
	FuncMap   map[string]*FuncDecl
	Stmts     []Stmt // indexed by statement ID; see Stmt

	artifactMu sync.Mutex
	artifacts  []struct{ key, val any }
}

// Artifact returns the derived artifact named by key, building it on first
// use: compiled bytecode (interp) and static Info (analysis) live here. Keys
// are values of types their packages keep unexported. Safe for concurrent
// use; build runs under the lock and must not call Artifact. A checked
// Program is never modified, so an artifact never goes stale.
func (p *Program) Artifact(key any, build func() any) any {
	p.artifactMu.Lock()
	defer p.artifactMu.Unlock()
	for _, a := range p.artifacts {
		if a.key == key {
			return a.val
		}
	}
	v := build()
	p.artifacts = append(p.artifacts, struct{ key, val any }{key, v})
	return v
}

// Stmt returns the statement with the given ID, or nil for an ID the
// program does not have (such as -1, the trace's "no barrier" PC).
func (p *Program) Stmt(id int) Stmt {
	if uint(id) < uint(len(p.Stmts)) {
		return p.Stmts[id]
	}
	return nil
}

// NumStmts returns the number of statement IDs the parser allocated; valid
// IDs are 0..NumStmts-1.
func (p *Program) NumStmts() int { return p.nextID }

// ConstDecl is a named integer constant: const N = 256; The initializer may
// reference previously declared constants and is evaluated by Check.
type ConstDecl struct {
	Pos   Pos
	Name  string
	Expr  Expr
	Value int64 // resolved by Check
}

// SharedDecl declares a shared array (or scalar, when Dims is empty) living
// in the simulated global address space:
//
//	shared float A[256][256] label "A";
//
// The optional label names the region for Cachier's address-to-variable
// mapping, standing in for the paper's memory-labelling macro.
type SharedDecl struct {
	Pos   Pos
	Name  string
	Base  BaseType
	Dims  []Expr // constant expressions
	Label string // "" if unlabelled

	// Resolved by Check:
	DimSizes []int // evaluated Dims (len 0 for scalars)
	Size     int   // total element count
	// Index is the position in Program.Shareds. The address depends on the
	// run's block size, so a run keeps base addresses in a table of its own
	// indexed by this (memory.Layout.Regions), and Check is the AST's last writer.
	Index int
}

// Param is a function parameter.
type Param struct {
	Name string
	Base BaseType
}

// RefKind classifies what a name reference resolved to. Check fills it in
// for every reference in a parsed program. Nodes built outside the parser
// (the annotation statements Cachier prints with PrintEdited) keep the zero
// value RefUnresolved: they are unchecked, and nothing executes them — an
// executable program comes from parsing printed source.
type RefKind uint8

// Reference kinds.
const (
	RefUnresolved RefKind = iota // not checked (generated node)
	RefLocal                     // private scalar: Slot indexes the frame's scalars
	RefArray                     // private array: Slot indexes the frame's arrays
	RefShared                    // shared variable: Shared points at the declaration
	RefConst                     // named constant: Const holds the value
)

// Binding records where a function-local name lives at run time: a slot in
// the activation frame's scalar or array storage. Check builds one per
// parameter, local, and loop variable, and resolves every reference through
// the table; the compiler reads a private array's declaration from it.
type Binding struct {
	Decl  *VarDeclStmt // nil for parameters and implicit loop variables
	Slot  int
	Array bool
}

// BuiltinID identifies a builtin function. BuiltinNone marks a call that is
// not a builtin (a user function, or an unchecked generated node).
type BuiltinID uint8

// Builtin identifiers.
const (
	BuiltinNone BuiltinID = iota
	BuiltinPid
	BuiltinNprocs
	BuiltinMin
	BuiltinMax
	BuiltinAbs
	BuiltinSqrt
	BuiltinSin
	BuiltinCos
	BuiltinFloor
	BuiltinFloat
	BuiltinInt
	BuiltinRnd
	BuiltinRndseed
)

// FuncDecl is a function definition. The function named "main" is the SPMD
// entry point executed by every processor.
type FuncDecl struct {
	Pos    Pos
	Name   string
	Params []Param
	Result *BaseType // nil for void
	Body   *Block

	// Resolved by Check. Parameters occupy scalar slots 0..len(Params)-1
	// in declaration order; locals and loop variables follow. ParC scoping
	// is function-wide with no shadowing, so every name has exactly one
	// slot for the whole body. Scalars holds each slot's type, which the
	// slot keeps for the whole activation: a parameter's or local's declared
	// type, int for an implicit loop counter.
	Scalars   []BaseType
	NumArrays int
	Bindings  map[string]Binding
}

// Stmt is a ParC statement. Every parsed statement has a unique ID within
// its Program and a source position; a generated statement (built outside
// the parser, only ever printed) has ID 0 and a zero position.
type Stmt interface {
	ID() int
	Position() Pos
	stmtNode()
}

type stmtInfo struct {
	id  int
	pos Pos
}

func (s *stmtInfo) ID() int       { return s.id }
func (s *stmtInfo) Position() Pos { return s.pos }
func (s *stmtInfo) stmtNode()     {}

// Block is a braced statement list.
type Block struct {
	stmtInfo
	Stmts []Stmt
}

// VarDeclStmt declares a processor-private variable, optionally with
// initializer (scalars only): var t float = 0.0; var buf float[64];
type VarDeclStmt struct {
	stmtInfo
	Name string
	Base BaseType
	Dims []Expr // nil for scalars; constant expressions
	Init Expr   // nil unless scalar with initializer

	DimSizes []int // resolved by Check
	Slot     int   // frame slot + 1, resolved by Check; 0 means unresolved
}

// AssignOp is the operator of an assignment statement.
type AssignOp int

// Assignment operators.
const (
	OpSet AssignOp = iota // =
	OpAdd                 // +=
	OpSub                 // -=
	OpMul                 // *=
	OpDiv                 // /=
)

func (op AssignOp) String() string {
	switch op {
	case OpSet:
		return "="
	case OpAdd:
		return "+="
	case OpSub:
		return "-="
	case OpMul:
		return "*="
	case OpDiv:
		return "/="
	}
	return "?="
}

// AssignStmt assigns to a scalar variable or array element.
type AssignStmt struct {
	stmtInfo
	LHS *LValue
	Op  AssignOp
	RHS Expr
}

// LValue is an assignable reference: a bare name or an indexed array.
type LValue struct {
	Pos     Pos
	Name    string
	Indices []Expr // nil for scalars

	// Resolved by Check (RefLocal, RefArray, or RefShared; constants are
	// rejected as assignment targets).
	Ref    RefKind
	Slot   int
	Shared *SharedDecl
}

// IfStmt is a conditional. Else is nil, a *Block, or an *IfStmt (else-if).
type IfStmt struct {
	stmtInfo
	Cond Expr
	Then *Block
	Else Stmt
}

// WhileStmt loops while Cond is nonzero.
type WhileStmt struct {
	stmtInfo
	Cond Expr
	Body *Block
}

// ForStmt is the counted loop "for i = lo to hi [step s] { ... }". The bound
// is inclusive, following the paper's pseudocode. Step defaults to 1 and may
// be negative (then the loop runs while i >= hi).
type ForStmt struct {
	stmtInfo
	Var  string
	From Expr
	To   Expr
	Step Expr // nil means 1
	Body *Block

	// VarSlot is the loop variable's scalar frame slot + 1, resolved by
	// Check; 0 means unchecked (a generated loop).
	VarSlot int
}

// BarrierStmt is a global barrier; it delimits epochs.
type BarrierStmt struct {
	stmtInfo
}

// LockStmt acquires the lock numbered by its expression.
type LockStmt struct {
	stmtInfo
	LockID Expr
}

// UnlockStmt releases the lock numbered by its expression.
type UnlockStmt struct {
	stmtInfo
	LockID Expr
}

// ReturnStmt returns from the current function; Value is nil for void.
type ReturnStmt struct {
	stmtInfo
	Value Expr
}

// ExprStmt is a call used as a statement.
type ExprStmt struct {
	stmtInfo
	Call *CallExpr
}

// PrintStmt emits formatted debug output: print("x=%d", x);
// Verbs: %d (int), %f (float), %g (float, compact).
type PrintStmt struct {
	stmtInfo
	Format string
	Args   []Expr
}

// CICOStmt is one of the five CICO annotation statements applied to an
// address range of a shared array, e.g. check_out_s B[k][lo:hi];
// CICO statements never change program semantics (paper Section 1).
type CICOStmt struct {
	stmtInfo
	Kind   AnnKind
	Target *RangeRef
}

// CommentStmt is a free-standing comment line; Cachier uses it to flag data
// races and false sharing next to the offending reference (Section 4.3).
type CommentStmt struct {
	stmtInfo
	Text string // without the comment delimiters
}

// RangeRef names a shared array region: each dimension is either a single
// index or an inclusive lo:hi range.
type RangeRef struct {
	Pos     Pos
	Name    string
	Indices []RangeIndex

	Shared *SharedDecl // resolved by Check; nil on unchecked generated nodes
}

// RangeIndex is one dimension of a RangeRef. Hi is nil for a single index.
type RangeIndex struct {
	Lo Expr
	Hi Expr
}

// Expr is a ParC expression.
type Expr interface {
	Position() Pos
	exprNode()
}

type exprInfo struct{ pos Pos }

func (e *exprInfo) Position() Pos { return e.pos }
func (e *exprInfo) exprNode()     {}

// IntLit is an integer literal.
type IntLit struct {
	exprInfo
	Value int64
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	exprInfo
	Value float64
}

// VarRef names a constant, parameter, local, or shared scalar.
type VarRef struct {
	exprInfo
	Name string

	// Resolved by Check (RefLocal, RefConst, or RefShared).
	Ref    RefKind
	Slot   int
	Shared *SharedDecl
	Const  int64
}

// IndexExpr reads an element of a (shared or private) array.
type IndexExpr struct {
	exprInfo
	Name    string
	Indices []Expr

	// Resolved by Check (RefArray or RefShared).
	Ref    RefKind
	Slot   int
	Shared *SharedDecl
}

// CallExpr calls a user function or builtin (pid, nprocs, min, max, abs,
// sqrt, sin, cos, floor, float, int, rnd, rndseed).
type CallExpr struct {
	exprInfo
	Name string
	Args []Expr

	// Resolved by Check: exactly one of Builtin/Fn is set for checked
	// calls; both zero on unchecked generated nodes.
	Builtin BuiltinID
	Fn      *FuncDecl
}

// UnaryExpr applies unary minus or logical not.
type UnaryExpr struct {
	exprInfo
	Op TokKind // TokMinus or TokNot
	X  Expr
}

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	exprInfo
	Op   TokKind
	X, Y Expr
}

// Constructors for the generated nodes Cachier splices in with PrintEdited.
// Generated nodes carry a zero position and no resolution: they are printed,
// and the printed program is parsed and checked before anything executes it.

// NewIntLit builds an integer literal expression.
func NewIntLit(v int64) *IntLit { return &IntLit{Value: v} }

// NewVarRef builds a variable reference expression.
func NewVarRef(name string) *VarRef { return &VarRef{Name: name} }

// NewBinary builds a binary expression.
func NewBinary(op TokKind, x, y Expr) *BinaryExpr { return &BinaryExpr{Op: op, X: x, Y: y} }

// Walk calls fn for every statement in the subtree rooted at s, in source
// order, recursing into nested blocks. If fn returns false the subtree below
// that statement is skipped.
func Walk(s Stmt, fn func(Stmt) bool) {
	if s == nil || !fn(s) {
		return
	}
	switch n := s.(type) {
	case *Block:
		for _, c := range n.Stmts {
			Walk(c, fn)
		}
	case *IfStmt:
		Walk(n.Then, fn)
		Walk(n.Else, fn)
	case *WhileStmt:
		Walk(n.Body, fn)
	case *ForStmt:
		Walk(n.Body, fn)
	}
}

// WalkProgram walks every function body in the program.
func WalkProgram(p *Program, fn func(Stmt) bool) {
	for _, f := range p.Funcs {
		Walk(f.Body, fn)
	}
}
