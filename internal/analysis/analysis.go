// Package analysis computes the static program information Cachier combines
// with the dynamic trace (paper Sections 3.4 and 4.2-4.3): for every
// statement, its enclosing block and position, its enclosing loop nest, its
// function, and the shared-array references it contains. Because ParC has
// structured control flow only, loop nesting and parent links subsume the
// control-flow graph for the placement decisions Cachier makes: check-outs
// hoist outward through loop levels and stop at barriers and function
// boundaries.
package analysis

import (
	"math"
	"sync/atomic"

	"cachier/internal/parc"
)

// Ref is one static shared-array reference site.
type Ref struct {
	Stmt    parc.Stmt   // statement containing the reference
	Var     string      // shared variable name
	Indices []parc.Expr // subscripts (nil for shared scalars)
	Write   bool
}

// Info is the static analysis result for one program. Nothing writes to it
// after it is built, so any number of goroutines may share it.
type Info struct {
	Prog *parc.Program

	stmts []stmtInfo // by statement ID
}

// stmtInfo is what Info knows about one statement.
type stmtInfo struct {
	parentBlock *parc.Block // enclosing block, nil for function bodies
	parentIndex int         // index within parentBlock
	parentStmt  parc.Stmt   // immediate parent statement
	// loops is the enclosing for-loop chain, outermost first. Statements
	// in one loop body share it; its capacity is clamped to its length, so
	// appending to it copies.
	loops      []*parc.ForStmt
	fn         *parc.FuncDecl
	refs       []Ref
	hasBarrier bool // the statement's subtree contains a barrier
}

// infoKey names a Program's Info in its Artifact memo.
type infoKey struct{}

var builds atomic.Uint64

// Builds returns how many Infos this process has built, a work counter.
func Builds() uint64 { return builds.Load() }

// Analyze returns static information for the whole program, built on the
// first call and kept with the program, so vet, static inference and every
// annotation of one parsed program share one Info.
func Analyze(prog *parc.Program) *Info {
	return prog.Artifact(infoKey{}, func() any {
		builds.Add(1)
		in := &Info{Prog: prog, stmts: make([]stmtInfo, prog.NumStmts())}
		for _, f := range prog.Funcs {
			in.visit(f.Body, f, nil)
		}
		return in
	}).(*Info)
}

// visit records parent/loop/function links for s's subtree. loops is the
// enclosing for-loop chain, outermost first, with its capacity clamped.
func (in *Info) visit(s parc.Stmt, f *parc.FuncDecl, loops []*parc.ForStmt) bool {
	if s == nil {
		return false
	}
	si := &in.stmts[s.ID()]
	si.fn = f
	si.loops = loops
	barrier := false
	switch n := s.(type) {
	case *parc.Block:
		for i, c := range n.Stmts {
			ci := &in.stmts[c.ID()]
			ci.parentBlock, ci.parentIndex, ci.parentStmt = n, i, n
			if in.visit(c, f, loops) {
				barrier = true
			}
		}
	case *parc.IfStmt:
		in.stmts[n.Then.ID()].parentStmt = n
		if in.visit(n.Then, f, loops) {
			barrier = true
		}
		if n.Else != nil {
			in.stmts[n.Else.ID()].parentStmt = n
			if in.visit(n.Else, f, loops) {
				barrier = true
			}
		}
		in.collectRefs(n.ID(), nil, n.Cond)
	case *parc.WhileStmt:
		in.stmts[n.Body.ID()].parentStmt = n
		if in.visit(n.Body, f, loops) {
			barrier = true
		}
		in.collectRefs(n.ID(), nil, n.Cond)
	case *parc.ForStmt:
		in.stmts[n.Body.ID()].parentStmt = n
		inner := append(loops, n)
		if in.visit(n.Body, f, inner[:len(inner):len(inner)]) {
			barrier = true
		}
		in.collectRefs(n.ID(), nil, n.From, n.To, n.Step)
	case *parc.BarrierStmt:
		barrier = true
	case *parc.VarDeclStmt:
		in.collectRefs(n.ID(), nil, n.Init)
	case *parc.AssignStmt:
		if _, shared := in.Prog.SharedMap[n.LHS.Name]; shared {
			si.refs = append(si.refs, Ref{
				Stmt: n, Var: n.LHS.Name, Indices: n.LHS.Indices, Write: true,
			})
			if n.Op != parc.OpSet {
				// Compound assignment also reads the destination.
				si.refs = append(si.refs, Ref{
					Stmt: n, Var: n.LHS.Name, Indices: n.LHS.Indices, Write: false,
				})
			}
		}
		in.collectRefs(n.ID(), n, n.RHS)
		for _, ix := range n.LHS.Indices {
			in.collectRefs(n.ID(), n, ix)
		}
	case *parc.LockStmt:
		in.collectRefs(n.ID(), nil, n.LockID)
	case *parc.UnlockStmt:
		in.collectRefs(n.ID(), nil, n.LockID)
	case *parc.ReturnStmt:
		in.collectRefs(n.ID(), nil, n.Value)
	case *parc.ExprStmt:
		in.collectRefs(n.ID(), nil, n.Call)
	case *parc.PrintStmt:
		in.collectRefs(n.ID(), nil, n.Args...)
	}
	si.hasBarrier = barrier
	return barrier
}

// collectRefs records shared reads inside the given expressions, attributed
// to statement id. owner, when non-nil, is used as the Ref's statement; it
// is the statement the trace PC will name.
func (in *Info) collectRefs(id int, owner parc.Stmt, exprs ...parc.Expr) {
	if owner == nil {
		owner = in.Prog.Stmt(id)
	}
	for _, e := range exprs {
		in.walkExpr(id, owner, e)
	}
}

func (in *Info) walkExpr(id int, owner parc.Stmt, e parc.Expr) {
	switch n := e.(type) {
	case nil:
	case *parc.VarRef:
		if d, ok := in.Prog.SharedMap[n.Name]; ok && len(d.DimSizes) == 0 {
			in.stmts[id].refs = append(in.stmts[id].refs, Ref{Stmt: owner, Var: n.Name, Write: false})
		}
	case *parc.IndexExpr:
		if _, ok := in.Prog.SharedMap[n.Name]; ok {
			in.stmts[id].refs = append(in.stmts[id].refs, Ref{Stmt: owner, Var: n.Name, Indices: n.Indices, Write: false})
		}
		for _, ix := range n.Indices {
			in.walkExpr(id, owner, ix)
		}
	case *parc.CallExpr:
		for _, a := range n.Args {
			in.walkExpr(id, owner, a)
		}
	case *parc.UnaryExpr:
		in.walkExpr(id, owner, n.X)
	case *parc.BinaryExpr:
		in.walkExpr(id, owner, n.X)
		in.walkExpr(id, owner, n.Y)
	}
}

// Block returns the block directly containing the statement and the
// statement's index within it. ok is false for function bodies themselves.
func (in *Info) Block(id int) (b *parc.Block, index int, ok bool) {
	si := &in.stmts[id]
	return si.parentBlock, si.parentIndex, si.parentBlock != nil
}

// Parent returns the immediate parent statement (a block, if, while, or for).
func (in *Info) Parent(id int) parc.Stmt { return in.stmts[id].parentStmt }

// Loops returns the for-loops enclosing the statement, outermost first. The
// slice is shared: callers must not modify its elements.
func (in *Info) Loops(id int) []*parc.ForStmt { return in.stmts[id].loops }

// Func returns the function whose body contains the statement.
func (in *Info) Func(id int) *parc.FuncDecl { return in.stmts[id].fn }

// Refs returns the shared-array references contained in the statement
// (not including nested statements).
func (in *Info) Refs(id int) []Ref { return in.stmts[id].refs }

// ContainsBarrier reports whether the statement's subtree contains a
// barrier; check-outs must not hoist above such statements, since their
// bodies span epochs.
func (in *Info) ContainsBarrier(s parc.Stmt) bool { return in.stmts[s.ID()].hasBarrier }

// AllRefs returns every shared reference site in the program, in statement
// ID order.
func (in *Info) AllRefs() []Ref {
	var out []Ref
	parc.WalkProgram(in.Prog, func(s parc.Stmt) bool {
		out = append(out, in.stmts[s.ID()].refs...)
		return true
	})
	return out
}

// MentionsVar reports whether the expression references the given name.
func MentionsVar(e parc.Expr, name string) bool {
	found := false
	var walk func(parc.Expr)
	walk = func(e parc.Expr) {
		if found || e == nil {
			return
		}
		switch n := e.(type) {
		case *parc.VarRef:
			if n.Name == name {
				found = true
			}
		case *parc.IndexExpr:
			if n.Name == name {
				found = true
			}
			for _, ix := range n.Indices {
				walk(ix)
			}
		case *parc.CallExpr:
			for _, a := range n.Args {
				walk(a)
			}
		case *parc.UnaryExpr:
			walk(n.X)
		case *parc.BinaryExpr:
			walk(n.X)
			walk(n.Y)
		}
	}
	walk(e)
	return found
}

// AffineInVar decomposes an index expression as (var + offset) when the
// expression is the loop variable itself or the loop variable plus/minus an
// expression not mentioning it. It returns the offset expression (nil for
// zero) and whether the decomposition succeeded. Hoisting a check-out above
// a loop substitutes the loop bounds into such indices; non-affine uses
// (v*2, A[v%k]) block hoisting past that loop.
func AffineInVar(e parc.Expr, v string) (offset parc.Expr, negated bool, ok bool) {
	switch n := e.(type) {
	case *parc.VarRef:
		if n.Name == v {
			return nil, false, true
		}
	case *parc.BinaryExpr:
		if n.Op == parc.TokPlus {
			if vr, isVar := n.X.(*parc.VarRef); isVar && vr.Name == v && !MentionsVar(n.Y, v) {
				return n.Y, false, true
			}
			if vr, isVar := n.Y.(*parc.VarRef); isVar && vr.Name == v && !MentionsVar(n.X, v) {
				return n.X, false, true
			}
		}
		if n.Op == parc.TokMinus {
			if vr, isVar := n.X.(*parc.VarRef); isVar && vr.Name == v && !MentionsVar(n.Y, v) {
				return n.Y, true, true
			}
		}
	}
	return nil, false, false
}

// TripCount computes a for-loop's static trip count when its bounds and step
// are program constants. Both Cachier's placement (loop footprints) and the
// vet race detector (epoch-aligned loop enumeration) depend on it.
func TripCount(l *parc.ForStmt, consts map[string]int64) (uint64, bool) {
	from, _, f1 := parc.FoldConst(l.From, consts)
	to, _, f2 := parc.FoldConst(l.To, consts)
	if f1 != parc.Folded || f2 != parc.Folded {
		return 0, false
	}
	step := int64(1)
	if l.Step != nil {
		s, _, f := parc.FoldConst(l.Step, consts)
		if f != parc.Folded {
			return 0, false
		}
		step = s
	}
	return TripCountBounds(from, to, step)
}

// TripCountBounds is TripCount on already-evaluated bounds; vet's abstract
// interpreter uses it for every loop it may enumerate, including those whose
// bounds are node-concrete (pid-derived) rather than program constants. A
// zero step, or a range so wide that to-from overflows int64, reports
// ok=false rather than folding a wrapped value.
func TripCountBounds(from, to, step int64) (uint64, bool) {
	if step == 0 {
		return 0, false
	}
	if step < 0 {
		from, to = to, from
	}
	if to < from {
		return 0, true
	}
	// The difference of two int64s in order is exact in uint64; over
	// MaxInt64 it is a range no int64 subtraction could fold.
	diff := uint64(to) - uint64(from)
	if diff > math.MaxInt64 {
		return 0, false
	}
	// |step| computed in uint64 so MinInt64 needs no special case.
	mag := uint64(step)
	if step < 0 {
		mag = -mag
	}
	return diff/mag + 1, true
}
