package core

import (
	"fmt"
	"sort"

	"cachier/internal/analysis"
	"cachier/internal/parc"
)

// applyInsertions splices the planned statements in around their anchors.
// It returns, for every block that receives any, the block's new statement
// list, for parc.PrintEdited, and the number of statements inserted. The
// program itself is never modified.
func applyInsertions(prog *parc.Program, info *analysis.Info, plan []*insertion) (map[*parc.Block][]parc.Stmt, int, error) {
	type blockEdits struct {
		before     map[int][]*insertion // anchor ID -> insertions
		after      map[int][]*insertion
		blockStart []*insertion
	}
	edits := make(map[*parc.Block]*blockEdits)
	editFor := func(b *parc.Block) *blockEdits {
		e := edits[b]
		if e == nil {
			e = &blockEdits{
				before: make(map[int][]*insertion),
				after:  make(map[int][]*insertion),
			}
			edits[b] = e
		}
		return e
	}

	for _, ins := range plan {
		// An anchor may itself not be a direct block child (an else-if in a
		// chain, whose parent is the outer if); climb to the nearest
		// ancestor that is. Inserting around the whole chain is safe:
		// annotations never change semantics.
		aid := ins.anchorID
		for {
			if _, _, ok := info.Block(aid); ok {
				break
			}
			p := info.Parent(aid)
			if p == nil {
				return nil, 0, fmt.Errorf("core: anchor statement %d has no enclosing block", ins.anchorID)
			}
			aid = p.ID()
		}
		ins.anchorID = aid
		b, _, _ := info.Block(aid)
		e := editFor(b)
		switch ins.where {
		case whereBefore:
			e.before[ins.anchorID] = append(e.before[ins.anchorID], ins)
		case whereAfter:
			e.after[ins.anchorID] = append(e.after[ins.anchorID], ins)
		case whereBlockStart:
			e.blockStart = append(e.blockStart, ins)
		}
	}

	inserted := 0
	pl := &planner{prog: prog, info: info} // for introducedBefore during positioning
	lists := make(map[*parc.Block][]parc.Stmt, len(edits))
	for b, e := range edits {
		// Compute each blockStart insertion's position: the earliest index
		// not after its anchor at which every mentioned local name is
		// already introduced.
		startAt := make(map[int][]*insertion) // index -> insertions
		for _, ins := range e.blockStart {
			anchorIdx := indexOf(b, ins.anchorID, info)
			// The insertion must stay in the anchor's epoch: never move it
			// before a statement that contains a barrier.
			floor := 0
			for p := 0; p < anchorIdx; p++ {
				if info.ContainsBarrier(b.Stmts[p]) {
					floor = p + 1
				}
			}
			pos := anchorIdx
			names := mentionedLocals(prog, ins.stmts)
			for p := floor; p <= anchorIdx; p++ {
				okHere := true
				for name := range names {
					if !pl.introducedBefore(name, b.Stmts[p].ID()) {
						okHere = false
						break
					}
				}
				if okHere {
					pos = p
					break
				}
			}
			startAt[pos] = append(startAt[pos], ins)
		}
		out := make([]parc.Stmt, 0, len(b.Stmts))
		for i, s := range b.Stmts {
			for _, ins := range sortIns(startAt[i]) {
				out = append(out, ins.stmts...)
				inserted += len(ins.stmts)
			}
			for _, ins := range sortIns(e.before[s.ID()]) {
				out = append(out, ins.stmts...)
				inserted += len(ins.stmts)
			}
			out = append(out, s)
			for _, ins := range sortIns(e.after[s.ID()]) {
				out = append(out, ins.stmts...)
				inserted += len(ins.stmts)
			}
		}
		lists[b] = out
	}
	return lists, inserted, nil
}

func sortIns(list []*insertion) []*insertion {
	sort.Slice(list, func(i, j int) bool { return list[i].sortKey < list[j].sortKey })
	return list
}

// indexOf locates the anchor's index within its block; the anchor may be a
// nested statement, in which case its top-level ancestor within b is used.
func indexOf(b *parc.Block, anchorID int, info *analysis.Info) int {
	for {
		pb, idx, ok := info.Block(anchorID)
		if !ok {
			return 0
		}
		if pb == b {
			return idx
		}
		parent := info.Parent(anchorID)
		if parent == nil {
			return 0
		}
		anchorID = parent.ID()
		_ = idx
	}
}

// mentionedLocals collects the non-constant, non-shared names referenced by
// the inserted statements (generated loop variables excluded: they are
// introduced by the insertion itself).
func mentionedLocals(prog *parc.Program, stmts []parc.Stmt) map[string]bool {
	names := make(map[string]bool)
	introduced := make(map[string]bool)
	var visitExpr func(parc.Expr)
	visitExpr = func(e parc.Expr) {
		switch n := e.(type) {
		case nil:
		case *parc.VarRef:
			names[n.Name] = true
		case *parc.IndexExpr:
			names[n.Name] = true
			for _, ix := range n.Indices {
				visitExpr(ix)
			}
		case *parc.CallExpr:
			for _, a := range n.Args {
				visitExpr(a)
			}
		case *parc.UnaryExpr:
			visitExpr(n.X)
		case *parc.BinaryExpr:
			visitExpr(n.X)
			visitExpr(n.Y)
		}
	}
	for _, s := range stmts {
		parc.Walk(s, func(st parc.Stmt) bool {
			switch n := st.(type) {
			case *parc.ForStmt:
				introduced[n.Var] = true
				visitExpr(n.From)
				visitExpr(n.To)
				visitExpr(n.Step)
			case *parc.CICOStmt:
				for _, ri := range n.Target.Indices {
					visitExpr(ri.Lo)
					visitExpr(ri.Hi)
				}
			}
			return true
		})
	}
	for name := range names {
		if introduced[name] {
			delete(names, name)
			continue
		}
		if _, ok := prog.ConstVal[name]; ok {
			delete(names, name)
			continue
		}
		if _, ok := prog.SharedMap[name]; ok {
			delete(names, name)
		}
	}
	return names
}
