package vet

import (
	"fmt"

	"cachier/internal/analysis"
	"cachier/internal/parc"
)

// The epoch CFG is ParC's control structure viewed through its barriers:
// because control flow is structured, each function body splits into
// straight-line segments separated by barrier statements, and the epoch a
// statement executes in is determined by how many barriers precede it. The
// checks here are the node-independent structural ones — places where the
// barrier count is data- or node-dependent, which both voids that epoch
// numbering and risks real barrier deadlock at run time.

// checkCFG adds one function body's structural findings: barrier
// placements whose epoch structure the abstract interpreter can only
// approximate.
func (v *vetter) checkCFG(fn *parc.FuncDecl) {
	v.countBarriers(fn.Body)
	if fn.Name != "main" && v.info.ContainsBarrier(fn.Body) {
		v.warn(fn.Pos, "barrier inside function %q: every node must call it in lockstep or the program deadlocks", fn.Name)
	}
}

func (v *vetter) warn(pos parc.Pos, format string, args ...any) {
	v.add(Finding{
		Rule: RuleStructural, Severity: SevWarning, Pos: pos, Epoch: -1,
		Nodes: [2]int{-1, -1},
		Msg:   fmt.Sprintf(format, args...),
	})
}

// countBarriers computes how many barriers executing s runs, when that is
// statically determined, flagging the constructs that make it data-dependent.
func (v *vetter) countBarriers(s parc.Stmt) (int, bool) {
	switch n := s.(type) {
	case *parc.Block:
		total, known := 0, true
		for _, child := range n.Stmts {
			k, ok := v.countBarriers(child)
			if !ok {
				known = false
			}
			total += k
		}
		return total, known
	case *parc.BarrierStmt:
		return 1, true
	case *parc.IfStmt:
		tb, tok := v.countBarriers(n.Then)
		eb, eok := 0, true
		if n.Else != nil {
			eb, eok = v.countBarriers(n.Else)
		}
		if tok && eok && tb == eb {
			return tb, true
		}
		if tb > 0 || eb > 0 || !tok || !eok {
			v.warn(n.Position(), "branches of this if may execute different numbers of barriers; if the condition is node-dependent the program deadlocks")
			return max(tb, eb), false
		}
		return 0, true
	case *parc.WhileStmt:
		b, _ := v.countBarriers(n.Body)
		if b > 0 {
			v.warn(n.Position(), "barrier inside while loop: the iteration count, and so the epoch structure, is data-dependent")
			return 0, false
		}
		return 0, true
	case *parc.ForStmt:
		b, ok := v.countBarriers(n.Body)
		if b == 0 && ok {
			return 0, true
		}
		if tc, tok := analysis.TripCount(n, v.prog.ConstVal); tok && ok {
			return int(tc) * b, true
		}
		// The abstract interpreter reports this case; it knows whether the
		// loop is actually enumerable.
		return 0, false
	}
	return 0, true
}
