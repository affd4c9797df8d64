package parc

import (
	"fmt"
	"math"
)

// Builtins maps builtin function names to their arities. float/int are
// conversions; rnd returns a deterministic per-processor pseudo-random float
// in [0,1); rndseed reseeds the caller's generator.
var Builtins = map[string]int{
	"pid":     0,
	"nprocs":  0,
	"min":     2,
	"max":     2,
	"abs":     1,
	"sqrt":    1,
	"sin":     1,
	"cos":     1,
	"floor":   1,
	"float":   1,
	"int":     1,
	"rnd":     0,
	"rndseed": 1,
}

// BuiltinByName maps builtin names to their identifiers; the interpreter
// dispatches on the identifier rather than the name.
var BuiltinByName = map[string]BuiltinID{
	"pid":     BuiltinPid,
	"nprocs":  BuiltinNprocs,
	"min":     BuiltinMin,
	"max":     BuiltinMax,
	"abs":     BuiltinAbs,
	"sqrt":    BuiltinSqrt,
	"sin":     BuiltinSin,
	"cos":     BuiltinCos,
	"floor":   BuiltinFloor,
	"float":   BuiltinFloat,
	"int":     BuiltinInt,
	"rnd":     BuiltinRnd,
	"rndseed": BuiltinRndseed,
}

// Check resolves and validates a parsed program: it evaluates constants and
// array dimensions, verifies name resolution and call arities, requires a
// parameterless main, and builds the Program's lookup tables (ConstVal,
// SharedMap, FuncMap, Stmts).
func Check(p *Program) error {
	c := &checker{prog: p}
	return c.run()
}

// MaxArrayBytes bounds the arrays a program may declare: each array, shared
// or private, and the shared address space as a whole (memory.New). Programs
// arrive from outside (cachierd, the CLIs) and every run allocates what
// they declare, so an unchecked dimension is an out-of-memory kill or, past
// 2^63 elements, a wrapped size. The largest checked-in program is Tomcatv
// at 16 392 blocks = 512 KB; 256 MB is over 500 times that.
const MaxArrayBytes = 1 << 28

type checker struct {
	prog *Program
}

func (c *checker) errorf(pos Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// arrayDims evaluates the dimensions of the array name (a "shared" or a
// "variable") declared at pos: every dimension positive, the element count
// within MaxArrayBytes. elems is 1 and sizes nil for a scalar.
func (c *checker) arrayDims(pos Pos, what, name string, dims []Expr) (sizes []int, elems int, err error) {
	const limit = MaxArrayBytes / ElemSize
	elems = 1
	for _, dim := range dims {
		n, err := c.constValue(dim)
		if err != nil {
			return nil, 0, err
		}
		if n <= 0 {
			return nil, 0, c.errorf(pos, "%s %q has non-positive dimension %d", what, name, n)
		}
		if n > limit || elems > limit/int(n) {
			return nil, 0, c.errorf(pos, "%s %q is larger than the array limit of %d elements", what, name, limit)
		}
		sizes = append(sizes, int(n))
		elems *= int(n)
	}
	return sizes, elems, nil
}

func (c *checker) run() error {
	p := c.prog
	p.ConstVal = make(map[string]int64)
	p.SharedMap = make(map[string]*SharedDecl)
	p.FuncMap = make(map[string]*FuncDecl)
	p.Stmts = make([]Stmt, p.NumStmts())

	for _, d := range p.Consts {
		if _, dup := p.ConstVal[d.Name]; dup {
			return c.errorf(d.Pos, "constant %q redeclared", d.Name)
		}
		v, err := c.constValue(d.Expr)
		if err != nil {
			return err
		}
		d.Value = v
		p.ConstVal[d.Name] = v
	}

	for i, d := range p.Shareds {
		d.Index = i
		if _, dup := p.ConstVal[d.Name]; dup {
			return c.errorf(d.Pos, "shared %q collides with a constant", d.Name)
		}
		if _, dup := p.SharedMap[d.Name]; dup {
			return c.errorf(d.Pos, "shared %q redeclared", d.Name)
		}
		var err error
		if d.DimSizes, d.Size, err = c.arrayDims(d.Pos, "shared", d.Name, d.Dims); err != nil {
			return err
		}
		p.SharedMap[d.Name] = d
	}

	for _, f := range p.Funcs {
		if _, dup := p.FuncMap[f.Name]; dup {
			return c.errorf(f.Pos, "function %q redeclared", f.Name)
		}
		if _, isBuiltin := Builtins[f.Name]; isBuiltin {
			return c.errorf(f.Pos, "function %q shadows a builtin", f.Name)
		}
		p.FuncMap[f.Name] = f
	}

	main, ok := p.FuncMap["main"]
	if !ok {
		// A whole-program error has no statement to point at; anchor it at
		// the top of the file so it still prints as file:line:col.
		return c.errorf(Pos{File: p.File, Line: 1, Col: 1}, "program has no main function")
	}
	if len(main.Params) != 0 {
		return c.errorf(main.Pos, "main must take no parameters")
	}

	for _, f := range p.Funcs {
		if err := c.checkFunc(f); err != nil {
			return err
		}
	}
	return nil
}

// Name scoping: ParC scoping is function-wide for simplicity (as in the
// paper's pseudocode); redeclaring a name in the same function is an error.
// The for-loop variable is implicitly declared as a private int if not
// already declared. checkFunc assigns every name a frame slot as it goes
// (parameters first, then locals and loop variables in source order) and
// records the assignment in f.Bindings.
func (c *checker) checkFunc(f *FuncDecl) error {
	f.Scalars, f.NumArrays = nil, 0
	f.Bindings = make(map[string]Binding)
	for _, p := range f.Params {
		if _, dup := f.Bindings[p.Name]; dup {
			return c.errorf(f.Pos, "parameter %q redeclared", p.Name)
		}
		f.Bindings[p.Name] = Binding{Slot: len(f.Scalars)}
		f.Scalars = append(f.Scalars, p.Base)
	}
	return c.checkStmt(f.Body, f)
}

func (c *checker) checkStmt(s Stmt, fn *FuncDecl) error {
	if s == nil {
		return nil
	}
	// A statement spliced in from another parse may carry a foreign ID.
	if id := s.ID(); id < len(c.prog.Stmts) {
		c.prog.Stmts[id] = s
	}
	switch n := s.(type) {
	case *Block:
		for _, child := range n.Stmts {
			if err := c.checkStmt(child, fn); err != nil {
				return err
			}
		}
	case *VarDeclStmt:
		if c.nameKind(n.Name, fn) != nameUnknown {
			return c.errorf(n.Position(), "variable %q redeclares an existing name", n.Name)
		}
		var err error
		if n.DimSizes, _, err = c.arrayDims(n.Position(), "variable", n.Name, n.Dims); err != nil {
			return err
		}
		if n.Init != nil {
			if err := c.checkExpr(n.Init, fn); err != nil {
				return err
			}
		}
		if len(n.DimSizes) > 0 {
			n.Slot = fn.NumArrays + 1
			fn.Bindings[n.Name] = Binding{Decl: n, Slot: fn.NumArrays, Array: true}
			fn.NumArrays++
		} else {
			n.Slot = len(fn.Scalars) + 1
			fn.Bindings[n.Name] = Binding{Decl: n, Slot: len(fn.Scalars)}
			fn.Scalars = append(fn.Scalars, n.Base)
		}
	case *AssignStmt:
		if err := c.checkLValue(n.LHS, fn); err != nil {
			return err
		}
		if err := c.checkExpr(n.RHS, fn); err != nil {
			return err
		}
	case *IfStmt:
		if err := c.checkExpr(n.Cond, fn); err != nil {
			return err
		}
		if err := c.checkStmt(n.Then, fn); err != nil {
			return err
		}
		if err := c.checkStmt(n.Else, fn); err != nil {
			return err
		}
	case *WhileStmt:
		if err := c.checkExpr(n.Cond, fn); err != nil {
			return err
		}
		if err := c.checkStmt(n.Body, fn); err != nil {
			return err
		}
	case *ForStmt:
		if err := c.checkExpr(n.From, fn); err != nil {
			return err
		}
		if err := c.checkExpr(n.To, fn); err != nil {
			return err
		}
		if n.Step != nil {
			if err := c.checkExpr(n.Step, fn); err != nil {
				return err
			}
		}
		switch k := c.nameKind(n.Var, fn); k {
		case nameUnknown:
			// Implicit private int loop variable.
			n.VarSlot = len(fn.Scalars) + 1
			fn.Bindings[n.Var] = Binding{Slot: len(fn.Scalars)}
			fn.Scalars = append(fn.Scalars, IntType)
		case nameLocal, nameParam:
			if b := fn.Bindings[n.Var]; b.Array {
				// The name is a private array; the loop counter is a
				// distinct hidden scalar of the same name. It cannot be
				// observed elsewhere: any bare reference to the name is
				// rejected as an unsubscripted array.
				n.VarSlot = len(fn.Scalars) + 1
				fn.Scalars = append(fn.Scalars, IntType)
			} else {
				n.VarSlot = b.Slot + 1
			}
		default:
			return c.errorf(n.Position(), "loop variable %q must be private", n.Var)
		}
		if err := c.checkStmt(n.Body, fn); err != nil {
			return err
		}
	case *BarrierStmt, *CommentStmt:
		// nothing to check
	case *LockStmt:
		return c.checkExpr(n.LockID, fn)
	case *UnlockStmt:
		return c.checkExpr(n.LockID, fn)
	case *ReturnStmt:
		if n.Value != nil {
			return c.checkExpr(n.Value, fn)
		}
	case *ExprStmt:
		return c.checkExpr(n.Call, fn)
	case *PrintStmt:
		for _, a := range n.Args {
			if err := c.checkExpr(a, fn); err != nil {
				return err
			}
		}
	case *CICOStmt:
		return c.checkRangeRef(n.Target, fn)
	default:
		return c.errorf(s.Position(), "unknown statement type %T", s)
	}
	return nil
}

type nameKindT int

const (
	nameUnknown nameKindT = iota
	nameConst
	nameShared
	nameLocal
	nameParam
)

func (c *checker) nameKind(name string, fn *FuncDecl) nameKindT {
	if b, ok := fn.Bindings[name]; ok {
		if b.Decl == nil {
			return nameParam
		}
		return nameLocal
	}
	if _, ok := c.prog.ConstVal[name]; ok {
		return nameConst
	}
	if _, ok := c.prog.SharedMap[name]; ok {
		return nameShared
	}
	return nameUnknown
}

func (c *checker) checkLValue(lv *LValue, fn *FuncDecl) error {
	kind := c.nameKind(lv.Name, fn)
	switch kind {
	case nameUnknown:
		return c.errorf(lv.Pos, "undefined variable %q", lv.Name)
	case nameConst:
		return c.errorf(lv.Pos, "cannot assign to constant %q", lv.Name)
	}
	if err := c.checkIndexArity(lv.Pos, lv.Name, len(lv.Indices), fn); err != nil {
		return err
	}
	for _, ix := range lv.Indices {
		if err := c.checkExpr(ix, fn); err != nil {
			return err
		}
	}
	switch kind {
	case nameLocal, nameParam:
		b := fn.Bindings[lv.Name]
		if b.Array {
			lv.Ref = RefArray
		} else {
			lv.Ref = RefLocal
		}
		lv.Slot = b.Slot
	case nameShared:
		lv.Ref = RefShared
		lv.Shared = c.prog.SharedMap[lv.Name]
	}
	return nil
}

// checkIndexArity verifies the number of indices matches the declared rank.
func (c *checker) checkIndexArity(pos Pos, name string, n int, fn *FuncDecl) error {
	var rank int
	if b, ok := fn.Bindings[name]; ok && b.Decl != nil {
		rank = len(b.Decl.DimSizes)
	} else if d, ok := c.prog.SharedMap[name]; ok {
		rank = len(d.DimSizes)
	} else {
		rank = 0 // params and loop vars are scalars
	}
	if n != rank {
		return c.errorf(pos, "%q has rank %d but is indexed with %d subscript(s)", name, rank, n)
	}
	return nil
}

func (c *checker) checkRangeRef(r *RangeRef, fn *FuncDecl) error {
	d, ok := c.prog.SharedMap[r.Name]
	if !ok {
		return c.errorf(r.Pos, "CICO annotation target %q is not a shared variable", r.Name)
	}
	if len(r.Indices) != len(d.DimSizes) {
		return c.errorf(r.Pos, "%q has rank %d but annotation gives %d subscript(s)",
			r.Name, len(d.DimSizes), len(r.Indices))
	}
	for _, ix := range r.Indices {
		if err := c.checkExpr(ix.Lo, fn); err != nil {
			return err
		}
		if ix.Hi != nil {
			if err := c.checkExpr(ix.Hi, fn); err != nil {
				return err
			}
		}
	}
	r.Shared = d
	return nil
}

func (c *checker) checkExpr(e Expr, fn *FuncDecl) error {
	switch n := e.(type) {
	case *IntLit, *FloatLit:
		return nil
	case *VarRef:
		kind := c.nameKind(n.Name, fn)
		if kind == nameUnknown {
			return c.errorf(n.Position(), "undefined name %q", n.Name)
		}
		if kind == nameShared && len(c.prog.SharedMap[n.Name].DimSizes) != 0 {
			return c.errorf(n.Position(), "shared array %q used without subscripts", n.Name)
		}
		if kind == nameLocal && fn.Bindings[n.Name].Array {
			return c.errorf(n.Position(), "array %q used without subscripts", n.Name)
		}
		switch kind {
		case nameLocal, nameParam:
			n.Ref = RefLocal
			n.Slot = fn.Bindings[n.Name].Slot
		case nameConst:
			n.Ref = RefConst
			n.Const = c.prog.ConstVal[n.Name]
		case nameShared:
			n.Ref = RefShared
			n.Shared = c.prog.SharedMap[n.Name]
		}
		return nil
	case *IndexExpr:
		kind := c.nameKind(n.Name, fn)
		if kind == nameUnknown {
			return c.errorf(n.Position(), "undefined name %q", n.Name)
		}
		if kind == nameConst || kind == nameParam {
			return c.errorf(n.Position(), "%q is not an array", n.Name)
		}
		if err := c.checkIndexArity(n.Position(), n.Name, len(n.Indices), fn); err != nil {
			return err
		}
		for _, ix := range n.Indices {
			if err := c.checkExpr(ix, fn); err != nil {
				return err
			}
		}
		if kind == nameLocal {
			// The arity check guarantees a subscripted local is an array.
			n.Ref = RefArray
			n.Slot = fn.Bindings[n.Name].Slot
		} else {
			n.Ref = RefShared
			n.Shared = c.prog.SharedMap[n.Name]
		}
		return nil
	case *CallExpr:
		if arity, ok := Builtins[n.Name]; ok {
			if len(n.Args) != arity {
				return c.errorf(n.Position(), "builtin %q takes %d argument(s), got %d", n.Name, arity, len(n.Args))
			}
			n.Builtin = BuiltinByName[n.Name]
			n.Fn = nil
		} else if f, ok := c.prog.FuncMap[n.Name]; ok {
			if len(n.Args) != len(f.Params) {
				return c.errorf(n.Position(), "function %q takes %d argument(s), got %d", n.Name, len(f.Params), len(n.Args))
			}
			n.Builtin = BuiltinNone
			n.Fn = f
		} else {
			return c.errorf(n.Position(), "undefined function %q", n.Name)
		}
		for _, a := range n.Args {
			if err := c.checkExpr(a, fn); err != nil {
				return err
			}
		}
		return nil
	case *UnaryExpr:
		return c.checkExpr(n.X, fn)
	case *BinaryExpr:
		if err := c.checkExpr(n.X, fn); err != nil {
			return err
		}
		return c.checkExpr(n.Y, fn)
	}
	return c.errorf(e.Position(), "unknown expression type %T", e)
}

// ConstFault says why FoldConst could not fold an expression.
type ConstFault uint8

// Constant-folding outcomes.
const (
	Folded   ConstFault = iota // the value is exact
	NotConst                   // a name that is no constant, or an operator a constant may not use
	DivZero                    // a division or modulo by zero
	Overflow                   // the exact value does not fit an int64
)

// FoldConst evaluates an integer constant expression: literals, the names in
// consts, unary minus and + - * / %. It never folds a wrapped value: a
// result outside int64 is an Overflow. On a fault it returns the innermost
// expression at fault and allocates nothing; the checker turns the fault
// into a positioned error, and trip counts and footprints take it as "not
// static".
func FoldConst(e Expr, consts map[string]int64) (v int64, at Expr, fault ConstFault) {
	switch n := e.(type) {
	case *IntLit:
		return n.Value, nil, Folded
	case *VarRef:
		if v, ok := consts[n.Name]; ok {
			return v, nil, Folded
		}
		return 0, n, NotConst
	case *UnaryExpr:
		if n.Op != TokMinus {
			return 0, n, NotConst
		}
		x, at, fault := FoldConst(n.X, consts)
		if fault != Folded {
			return 0, at, fault
		}
		if x == math.MinInt64 {
			return 0, n, Overflow
		}
		return -x, nil, Folded
	case *BinaryExpr:
		x, at, fault := FoldConst(n.X, consts)
		if fault != Folded {
			return 0, at, fault
		}
		y, at, fault := FoldConst(n.Y, consts)
		if fault != Folded {
			return 0, at, fault
		}
		var ok bool
		switch n.Op {
		case TokPlus:
			v = x + y
			ok = (v > x) == (y > 0)
		case TokMinus:
			v = x - y
			ok = (v < x) == (y > 0)
		case TokStar:
			v = x * y
			ok = x == 0 || (v/x == y && !(x == -1 && y == math.MinInt64))
		case TokSlash, TokPercent:
			if y == 0 {
				return 0, n, DivZero
			}
			if n.Op == TokPercent {
				return x % y, nil, Folded
			}
			v, ok = x/y, !(x == math.MinInt64 && y == -1)
		default:
			return 0, n, NotConst
		}
		if !ok {
			return 0, n, Overflow
		}
		return v, nil, Folded
	}
	return 0, e, NotConst
}

// constValue folds a constant expression for the checker, reporting a fault
// at the subexpression that caused it.
func (c *checker) constValue(e Expr) (int64, error) {
	v, at, fault := FoldConst(e, c.prog.ConstVal)
	switch {
	case fault == Folded:
		return v, nil
	case fault == Overflow:
		return 0, c.errorf(at.Position(), "integer overflow in constant expression")
	case fault == DivZero && at.(*BinaryExpr).Op == TokSlash:
		return 0, c.errorf(at.Position(), "division by zero in constant expression")
	case fault == DivZero:
		return 0, c.errorf(at.Position(), "modulo by zero in constant expression")
	}
	switch n := at.(type) {
	case *VarRef:
		return 0, c.errorf(n.Position(), "%q is not a constant", n.Name)
	case *UnaryExpr:
		return 0, c.errorf(n.Position(), "non-constant unary operator")
	case *BinaryExpr:
		return 0, c.errorf(n.Position(), "operator %s not allowed in constant expression", n.Op)
	}
	return 0, c.errorf(at.Position(), "expression is not constant")
}
