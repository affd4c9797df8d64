package core

import (
	"fmt"

	"cachier/internal/analysis"
	"cachier/internal/parc"
)

// groupCtx carries a static epoch group's boundary anchors: where "start of
// epoch" and "end of epoch" placements go. Anchors live in main, where the
// program model's barriers are (Section 3.1).
type groupCtx struct {
	startAnchor parc.Stmt
	startWhere  whereKind
	endAnchor   parc.Stmt
	endWhere    whereKind
}

// groupContext derives the boundary anchors for a group of dynamic epochs
// ending at barrier PC endPC, whose first member is dynamic epoch index
// first.
func (pl *planner) groupContext(epochs []*EpochSets, g []int) groupCtx {
	main := pl.prog.FuncMap["main"]
	ctx := groupCtx{}
	if main == nil || len(main.Body.Stmts) == 0 {
		return ctx
	}
	endPC := epochs[g[0]].BarrierPC
	if endPC >= 0 {
		if s, ok := pl.prog.Stmt(endPC).(*parc.BarrierStmt); ok {
			ctx.endAnchor, ctx.endWhere = s, whereBefore
		}
	}
	if ctx.endAnchor == nil {
		// Final epoch: anchor at the last statement of main.
		ctx.endAnchor, ctx.endWhere = main.Body.Stmts[len(main.Body.Stmts)-1], whereAfter
	}
	first := g[0]
	if first > 0 {
		prevPC := epochs[first-1].BarrierPC
		if s, ok := pl.prog.Stmt(prevPC).(*parc.BarrierStmt); ok {
			ctx.startAnchor, ctx.startWhere = s, whereAfter
		}
	}
	if ctx.startAnchor == nil {
		// First epoch: anchor at the first statement of main.
		ctx.startAnchor, ctx.startWhere = main.Body.Stmts[0], whereBefore
	}
	return ctx
}

// dynamicRef reports whether a reference's subscripts are unstructured: some
// subscript is neither a constant nor affine in an enclosing for-loop
// variable. Such references (tree-node indices, particle cells) execute with
// data-dependent addresses; pinning an annotation at the reference would
// re-execute it on every visit, so placement falls back to the epoch
// boundary (Section 4.2's epoch-relative placement).
func (pl *planner) dynamicRef(ref analysis.Ref) bool {
	loops := pl.info.Loops(ref.Stmt.ID())
	for _, ix := range ref.Indices {
		if _, _, f := parc.FoldConst(ix, pl.prog.ConstVal); f == parc.Folded {
			continue
		}
		structured := false
		for _, l := range loops {
			if analysis.MentionsVar(ix, l.Var) {
				if _, _, ok := analysis.AffineInVar(ix, l.Var); ok {
					structured = true
				}
				break
			}
		}
		if !structured {
			return true
		}
	}
	return false
}

// executesRepeatedly reports whether the site runs more than once per epoch:
// it is inside a loop, or in a function other than main (functions are
// called from loops in practice; one extra boundary annotation is harmless
// otherwise).
func (pl *planner) executesRepeatedly(site parc.Stmt) bool {
	if len(pl.info.Loops(site.ID())) > 0 {
		return true
	}
	f := pl.info.Func(site.ID())
	return f != nil && f.Name != "main"
}

// soleNode returns the only node with addresses in the work, or -1 if more
// than one node participates.
func soleNode(w *siteWork) int {
	sole := -1
	for n, set := range w.perNode {
		if len(set) == 0 {
			continue
		}
		if sole >= 0 {
			return -1
		}
		sole = n
	}
	return sole
}

// maxRelocatedTargets caps how many range statements a relocated annotation
// may expand to before being over-approximated by a single covering range.
const maxRelocatedTargets = 64

// literalTargets converts an address set into ranged references with literal
// index bounds, coalescing maximal contiguous element runs. Supports ranks
// 0 through 2 (all benchmark arrays); contiguous runs that span rows split
// into at most three references.
func (pl *planner) literalTargets(varName string, addrs AddrSet) []*parc.RangeRef {
	region := pl.layout.Region(varName)
	if region == nil || len(addrs) == 0 {
		return nil
	}
	if len(region.DimSizes) == 0 {
		return []*parc.RangeRef{{Name: varName}}
	}
	// Coalesce at cache-block granularity: the trace records only the first
	// missing element of each block, so element-level runs would fragment
	// into per-block singletons. Directives operate on whole blocks anyway.
	bs := uint64(pl.layout.BlockSize)
	elemsPerBlock := pl.layout.ElemsPerBlock()
	lastElem := region.Elems - 1
	var runs [][2]int // element offset ranges, inclusive
	startBlock := addrs[0] / bs
	prevBlock := startBlock
	flush := func() {
		lo := int((startBlock*bs - region.BaseAddr) / parc.ElemSize)
		hi := lo + int(prevBlock-startBlock)*elemsPerBlock + elemsPerBlock - 1
		if lo < 0 {
			lo = 0
		}
		if hi > lastElem {
			hi = lastElem
		}
		runs = append(runs, [2]int{lo, hi})
	}
	for _, a := range addrs[1:] {
		b := a / bs
		if b <= prevBlock+1 {
			if b > prevBlock {
				prevBlock = b
			}
			continue
		}
		flush()
		startBlock, prevBlock = b, b
	}
	flush()

	var out []*parc.RangeRef
	emit1 := func(lo, hi int) {
		out = append(out, &parc.RangeRef{Name: varName, Indices: []parc.RangeIndex{
			{Lo: parc.NewIntLit(int64(lo)), Hi: parc.NewIntLit(int64(hi))},
		}})
	}
	emit2 := func(r0, r1, c0, c1 int) {
		out = append(out, &parc.RangeRef{Name: varName, Indices: []parc.RangeIndex{
			{Lo: parc.NewIntLit(int64(r0)), Hi: parc.NewIntLit(int64(r1))},
			{Lo: parc.NewIntLit(int64(c0)), Hi: parc.NewIntLit(int64(c1))},
		}})
	}
	for _, run := range runs {
		switch len(region.DimSizes) {
		case 1:
			emit1(run[0], run[1])
		case 2:
			cols := region.DimSizes[1]
			r0, c0 := run[0]/cols, run[0]%cols
			r1, c1 := run[1]/cols, run[1]%cols
			switch {
			case r0 == r1:
				emit2(r0, r0, c0, c1)
			case c0 == 0 && c1 == cols-1:
				emit2(r0, r1, 0, cols-1)
			default:
				emit2(r0, r0, c0, cols-1)
				if r0+1 <= r1-1 {
					emit2(r0+1, r1-1, 0, cols-1)
				}
				emit2(r1, r1, 0, c1)
			}
		default:
			// Rank > 2: over-approximate with the full array.
			var idx []parc.RangeIndex
			for _, d := range region.DimSizes {
				idx = append(idx, parc.RangeIndex{Lo: parc.NewIntLit(0), Hi: parc.NewIntLit(int64(d - 1))})
			}
			return []*parc.RangeRef{{Name: varName, Indices: idx}}
		}
	}
	if len(out) > maxRelocatedTargets {
		// Over-approximate: one covering range per dimension.
		lo := int((addrs[0] - region.BaseAddr) / parc.ElemSize)
		hi := int((addrs[len(addrs)-1] - region.BaseAddr) / parc.ElemSize)
		switch len(region.DimSizes) {
		case 1:
			out = nil
			emit1(lo, hi)
		case 2:
			cols := region.DimSizes[1]
			out = nil
			emit2(lo/cols, hi/cols, 0, cols-1)
		}
	}
	return out
}

// placeRelocated emits an epoch-boundary annotation for work whose
// reference sites are unstructured: check-outs at the epoch start,
// check-ins at the epoch end, over literal ranges of the traced addresses,
// wrapped in an "if pid() == n" guard when a single node owns the work.
func (pl *planner) placeRelocated(kind parc.AnnKind, w *siteWork, ctx groupCtx) {
	anchor, where := ctx.startAnchor, ctx.startWhere
	if kind == parc.AnnCheckIn {
		anchor, where = ctx.endAnchor, ctx.endWhere
	}
	if anchor == nil {
		return
	}
	// Epoch-boundary bulk annotations use the covering span of the traced
	// addresses rather than the exact fragmented set: the exact set is an
	// artifact of one input (which tree nodes a walk visited, which cells
	// particles hit), and under-covering on another input leaves stale
	// sharers that defeat the annotation's purpose. Over-covering only
	// costs cheap wasted directives.
	lo, hi := w.merged[0], w.merged[len(w.merged)-1]
	span := make(AddrSet, 0, (hi-lo)/parc.ElemSize+2)
	for a := lo; a < hi; a += parc.ElemSize {
		span = append(span, a)
	}
	span = append(span, hi)
	targets := pl.literalTargets(w.varName, span)
	if len(targets) == 0 {
		return
	}
	node := soleNode(w)
	var descr string
	for _, t := range targets {
		descr += parc.RangeRefString(t) + ";"
	}
	key := fmt.Sprintf("%d|%d|%s|reloc:%d:%s", anchor.ID(), where, kind, node, descr)
	if _, dup := pl.insertions[key]; dup {
		return
	}
	var stmts []parc.Stmt
	for _, t := range targets {
		stmts = append(stmts, &parc.CICOStmt{Kind: kind, Target: t})
	}
	if node >= 0 {
		stmts = []parc.Stmt{&parc.IfStmt{
			Cond: parc.NewBinary(parc.TokEq,
				&parc.CallExpr{Name: "pid"}, parc.NewIntLit(int64(node))),
			Then: &parc.Block{Stmts: stmts},
		}}
	}
	pl.insertions[key] = &insertion{
		anchorID: anchor.ID(),
		where:    where,
		stmts:    stmts,
		sortKey:  key,
	}
}
