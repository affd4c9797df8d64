package core

import (
	"fmt"
	"sort"
	"strings"

	"cachier/internal/analysis"
	"cachier/internal/memory"
	"cachier/internal/parc"
)

// whereKind says where an insertion goes relative to its anchor statement.
type whereKind int

const (
	whereBefore whereKind = iota
	whereAfter
	whereBlockStart // earliest valid position in the anchor's block
)

// insertion is one planned splice: statements that print next to an anchor.
// The statements are built for the printer alone: they are never given IDs,
// checked or executed.
type insertion struct {
	anchorID int
	where    whereKind
	stmts    []parc.Stmt
	sortKey  string // deterministic ordering and dedup key
}

// planner builds the insertion plan for one program + trace.
type planner struct {
	prog   *parc.Program
	info   *analysis.Info
	layout *memory.Layout
	opts   Options

	insertions map[string]*insertion // keyed by sortKey
	flags      map[string]bool       // race/false-sharing comment dedup
	reports    []ConflictReport

	// Per-group state set by planGroup: the epochs under consideration and
	// a cache of per-variable index spans, used to size hoisted footprints.
	curEpochs  []*EpochSets
	curGroup   []int
	groupSpans map[string][]uint64
}

// ConflictReport describes a data race or false-sharing instance found in
// the trace, mapped back to source (Section 4.3: Cachier "flags data races
// and false sharing, to enable the programmer to use locks ... or pad the
// relevant data structures").
type ConflictReport struct {
	Kind  string // "data race" or "false sharing"
	Var   string
	Epoch int      // first dynamic epoch observed
	Pos   parc.Pos // a referencing statement's position
	Addrs int      // how many distinct addresses were involved
}

// siteWork is the annotation work attributed to one (site, variable) pair
// within a static epoch: which addresses each node needs annotated.
type siteWork struct {
	site    parc.Stmt
	varName string
	perNode []AddrSet
	merged  AddrSet // the union of perNode
}

// finish turns per-node address lists accumulated by appending into sets,
// and derives their union.
func (w *siteWork) finish() *siteWork {
	total := 0
	for n, s := range w.perNode {
		w.perNode[n] = normalize(s)
		total += len(w.perNode[n])
	}
	all := make([]uint64, 0, total)
	for _, s := range w.perNode {
		all = append(all, s...)
	}
	w.merged = normalize(all)
	return w
}

func newPlanner(prog *parc.Program, info *analysis.Info, layout *memory.Layout, opts Options) *planner {
	return &planner{
		prog:       prog,
		info:       info,
		layout:     layout,
		opts:       opts,
		insertions: make(map[string]*insertion),
		flags:      make(map[string]bool),
	}
}

// budget returns the per-variable footprint limit for hoisting decisions:
// half the cache.
func (pl *planner) budget() uint64 { return uint64(pl.opts.CacheSize / 2) }

// refFor finds the static reference in stmt matching varName; write selects
// among read/write references when both exist.
func (pl *planner) refFor(stmt parc.Stmt, varName string, write bool) (analysis.Ref, bool) {
	var fallback analysis.Ref
	found := false
	for _, r := range pl.info.Refs(stmt.ID()) {
		if r.Var != varName {
			continue
		}
		if r.Write == write {
			return r, true
		}
		fallback = r
		found = true
	}
	return fallback, found
}

// attribute groups annotation addresses by (reference site, variable). get
// returns the address set for one (epoch, node) plus an optional membership
// predicate applied while iterating (so callers never materialize filtered
// copies); the predicate is asked about that set's members in ascending
// order, one (epoch, node) at a time, so it may hold cursors. For check-outs
// each address is attributed to its earliest referencing statement, for
// check-ins (pickMax) the latest. With spread, conflicted addresses are
// attributed to every referencing statement so each reference gets a pinned
// annotation.
func (pl *planner) attribute(epochs []*EpochSets, group []int, get func(e, n int) (AddrSet, func(uint64) bool),
	pickMax, spread bool) []*siteWork {

	type key struct {
		site int
		v    string
	}
	work := make(map[key]*siteWork)
	// Neighbouring addresses usually share a site and a variable, so the
	// previous address's work item is tried before the map.
	var last *siteWork
	record := func(es *EpochSets, n int, site int, region string, addr uint64) {
		if last == nil || last.site.ID() != site || last.varName != region {
			k := key{site: site, v: region}
			if last = work[k]; last == nil {
				stmt := pl.prog.Stmt(site)
				if stmt == nil {
					return
				}
				last = &siteWork{site: stmt, varName: region, perNode: make([]AddrSet, len(es.Nodes))}
				work[k] = last
			}
		}
		last.perNode[n] = append(last.perNode[n], addr)
	}
	for _, ei := range group {
		es := epochs[ei]
		for n, ns := range es.Nodes {
			set, keep := get(ei, n)
			pcs := cursor{s: ns.PCs.Addrs}
			var region *memory.Region
			for _, addr := range set {
				if keep != nil && !keep(addr) {
					continue
				}
				if region == nil || !region.Contains(addr) {
					if region = pl.layout.RegionOf(addr); region == nil {
						continue
					}
				}
				if !pcs.has(addr) {
					continue
				}
				ids := ns.PCs.At(pcs.i)
				if spread {
					for _, id := range ids {
						record(es, n, id, region.Name, addr)
					}
					continue
				}
				best := ids[0]
				for _, id := range ids[1:] {
					if (pickMax && id > best) || (!pickMax && id < best) {
						best = id
					}
				}
				record(es, n, best, region.Name, addr)
			}
		}
	}
	out := make([]*siteWork, 0, len(work))
	for _, w := range work {
		out = append(out, w.finish())
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].site.ID() != out[j].site.ID() {
			return out[i].site.ID() < out[j].site.ID()
		}
		return out[i].varName < out[j].varName
	})
	return out
}

// lastRefSite pushes a check-in's site forward to the last statement in the
// same function that statically references the variable, provided no barrier
// lies between them (the statement is still in the same epoch region). The
// trace only records misses; later references that hit in cache — typically
// because an earlier miss brought their whole block in — are invisible
// dynamically, so a check-in placed at the last *miss* PC could strip the
// block from under a later reuse. This is one of the places Cachier's
// static information refines the dynamic information (Section 4.2: check-in
// annotations "as close to the end of an epoch as possible").
func (pl *planner) lastRefSite(varName string, from parc.Stmt) parc.Stmt {
	f := pl.info.Func(from.ID())
	if f == nil {
		return from
	}
	// The epoch region extends to the first barrier after the site.
	limit := int(^uint(0) >> 1)
	parc.Walk(f.Body, func(s parc.Stmt) bool {
		if _, isBarrier := s.(*parc.BarrierStmt); isBarrier && s.ID() > from.ID() && s.ID() < limit {
			limit = s.ID()
		}
		return true
	})
	best := from
	parc.Walk(f.Body, func(s parc.Stmt) bool {
		if s.ID() <= best.ID() || s.ID() >= limit {
			return true
		}
		for _, r := range pl.info.Refs(s.ID()) {
			if r.Var == varName {
				best = s
				break
			}
		}
		return true
	})
	return best
}

// hoist climbs the loop nest around a reference site, returning the anchor
// statement to place annotations around and the loops hoisted over
// (innermost first). The climb stops at barriers, non-unit or non-constant
// steps, non-affine subscripts, scope violations, and the cache budget
// (Section 4.2's "as close to the beginning of an epoch as possible under
// the cache size constraints").
func (pl *planner) hoist(w *siteWork, ref analysis.Ref) (anchor parc.Stmt, hoisted []*parc.ForStmt) {
	anchor = w.site
	loops := pl.info.Loops(w.site.ID())
	decl := pl.prog.SharedMap[w.varName]
	// Size footprints from the variable's whole per-node access span in
	// this epoch group, not just this work item's addresses: the emitted
	// range uses the loop bounds, which cover everything the node touches,
	// even when this particular reference site only accounted for a few of
	// the misses.
	spans := pl.spansFor(w.varName)
	if spans == nil {
		spans = pl.dimSpans(w, decl)
	}

	for k := len(loops) - 1; k >= 0; k-- {
		l := loops[k]
		if pl.info.ContainsBarrier(l) {
			break
		}
		if !unitStep(l, pl.prog.ConstVal) {
			break
		}
		affineOK := true
		for _, ix := range ref.Indices {
			if analysis.MentionsVar(ix, l.Var) {
				if _, _, ok := analysis.AffineInVar(ix, l.Var); !ok {
					affineOK = false
					break
				}
			}
		}
		if !affineOK {
			break
		}
		candidate := append(hoisted, l)
		if pl.footprint(ref, decl, candidate, spans) > pl.budget() {
			break
		}
		if !pl.scopeOK(ref, l, candidate) {
			break
		}
		hoisted = candidate
		anchor = l
	}
	return anchor, hoisted
}

// unitStep reports whether the loop's step is statically +1 or -1.
func unitStep(l *parc.ForStmt, consts map[string]int64) bool {
	if l.Step == nil {
		return true
	}
	v, _, f := parc.FoldConst(l.Step, consts)
	return f == parc.Folded && (v == 1 || v == -1)
}

// spansFor returns, per dimension, the maximum single-node index span of
// the variable's accesses within the current epoch group, or nil outside a
// group context.
func (pl *planner) spansFor(varName string) []uint64 {
	if pl.curEpochs == nil {
		return nil
	}
	if s, ok := pl.groupSpans[varName]; ok {
		return s
	}
	region := pl.layout.Region(varName)
	if region == nil || len(region.DimSizes) == 0 {
		pl.groupSpans[varName] = nil
		return nil
	}
	nd := len(region.DimSizes)
	spans := make([]uint64, nd)
	ixBuf := make([]int, nd)
	for _, ei := range pl.curGroup {
		for _, ns := range pl.curEpochs[ei].Nodes {
			lo := make([]int, nd)
			hi := make([]int, nd)
			first := true
			// Scan the region's slice of S = SW ∪ SR without materializing
			// the union; an address in both sets is folded twice, which
			// min/max absorbs.
			scan := func(addr uint64) {
				ix, err := region.IndexInto(addr, ixBuf)
				if err != nil {
					return
				}
				for d := 0; d < nd; d++ {
					if first || ix[d] < lo[d] {
						lo[d] = ix[d]
					}
					if first || ix[d] > hi[d] {
						hi[d] = ix[d]
					}
				}
				first = false
			}
			for _, set := range []AddrSet{ns.SW, ns.SR} {
				for _, addr := range set[set.search(region.BaseAddr):set.search(region.End())] {
					scan(addr)
				}
			}
			if first {
				continue
			}
			for d := 0; d < nd; d++ {
				if s := uint64(hi[d] - lo[d] + 1); s > spans[d] {
					spans[d] = s
				}
			}
		}
	}
	for d := range spans {
		if spans[d] == 0 {
			spans[d] = 1
		}
	}
	pl.groupSpans[varName] = spans
	return spans
}

// dimSpans returns, per dimension, the maximum per-node index span observed
// in the work's addresses; used to size footprints when loop bounds are not
// statically constant (e.g. pid-dependent).
func (pl *planner) dimSpans(w *siteWork, decl *parc.SharedDecl) []uint64 {
	nd := len(decl.DimSizes)
	if nd == 0 {
		return nil
	}
	spans := make([]uint64, nd)
	ixBuf := make([]int, nd)
	for _, set := range w.perNode {
		if len(set) == 0 {
			continue
		}
		lo := make([]int, nd)
		hi := make([]int, nd)
		first := true
		region := pl.layout.Region(decl.Name)
		for _, addr := range set {
			ix, err := region.IndexInto(addr, ixBuf)
			if err != nil {
				continue
			}
			for d := 0; d < nd; d++ {
				if first || ix[d] < lo[d] {
					lo[d] = ix[d]
				}
				if first || ix[d] > hi[d] {
					hi[d] = ix[d]
				}
			}
			first = false
		}
		if first {
			continue
		}
		for d := 0; d < nd; d++ {
			if s := uint64(hi[d] - lo[d] + 1); s > spans[d] {
				spans[d] = s
			}
		}
	}
	for d := range spans {
		if spans[d] == 0 {
			spans[d] = 1
		}
	}
	return spans
}

// footprint estimates the bytes covered by an annotation hoisted over the
// given loops: the product over dimensions of the covered index-range sizes.
// A dimension covered by a hoisted loop contributes that loop's trip count
// (static bounds) or the observed per-node span; uncovered dimensions
// contribute one element.
func (pl *planner) footprint(ref analysis.Ref, decl *parc.SharedDecl, hoisted []*parc.ForStmt, spans []uint64) uint64 {
	if len(decl.DimSizes) == 0 {
		return parc.ElemSize
	}
	total := uint64(parc.ElemSize)
	for d, ix := range ref.Indices {
		size := uint64(1)
		for _, l := range hoisted {
			if analysis.MentionsVar(ix, l.Var) {
				if tc, ok := analysis.TripCount(l, pl.prog.ConstVal); ok {
					size = tc
				} else if d < len(spans) {
					size = spans[d]
				} else {
					size = uint64(decl.DimSizes[d])
				}
				break
			}
		}
		total *= size
	}
	return total
}

// scopeOK verifies that an annotation placed before the hoist target would
// only mention names already introduced at that point: constants, shared
// variables, loop variables of loops still enclosing the anchor, and locals
// declared (by statement ID order) before the anchor.
func (pl *planner) scopeOK(ref analysis.Ref, anchor *parc.ForStmt, hoisted []*parc.ForStmt) bool {
	hoistedVars := make(map[string]bool, len(hoisted))
	for _, l := range hoisted {
		hoistedVars[l.Var] = true
	}
	ok := true
	var checkExpr func(e parc.Expr)
	checkName := func(name string) {
		if !ok {
			return
		}
		if _, isConst := pl.prog.ConstVal[name]; isConst {
			return
		}
		if _, isShared := pl.prog.SharedMap[name]; isShared {
			return
		}
		if hoistedVars[name] {
			// Will be substituted by the loop's bounds; the bounds
			// themselves are checked via the loop's From/To below.
			return
		}
		// A local or loop variable: it must be introduced before the anchor
		// (function-wide scope, textual order = statement ID order).
		if !pl.introducedBefore(name, anchor.ID()) {
			ok = false
		}
	}
	checkExpr = func(e parc.Expr) {
		switch n := e.(type) {
		case nil:
		case *parc.VarRef:
			checkName(n.Name)
		case *parc.IndexExpr:
			checkName(n.Name)
			for _, ix := range n.Indices {
				checkExpr(ix)
			}
		case *parc.CallExpr:
			for _, a := range n.Args {
				checkExpr(a)
			}
		case *parc.UnaryExpr:
			checkExpr(n.X)
		case *parc.BinaryExpr:
			checkExpr(n.X)
			checkExpr(n.Y)
		}
	}
	for _, ix := range ref.Indices {
		checkExpr(ix)
	}
	for _, l := range hoisted {
		checkExpr(l.From)
		checkExpr(l.To)
	}
	return ok
}

// introducedBefore reports whether a local name is introduced by a
// statement with ID < limit in the same function as limit's statement.
func (pl *planner) introducedBefore(name string, limit int) bool {
	f := pl.info.Func(limit)
	if f == nil {
		return false
	}
	for _, p := range f.Params {
		if p.Name == name {
			return true
		}
	}
	found := false
	parc.Walk(f.Body, func(s parc.Stmt) bool {
		if found {
			return false
		}
		switch n := s.(type) {
		case *parc.VarDeclStmt:
			if n.Name == name && n.ID() < limit {
				found = true
			}
		case *parc.ForStmt:
			if n.Var == name && n.ID() < limit {
				found = true
			}
		}
		return !found
	})
	return found
}

// substVar returns a copy of the expression with every reference to name
// replaced by repl. Used for software-pipelined prefetches, which rewrite
// the enclosing loop's induction variable to its next iteration's value.
func substVar(e parc.Expr, name string, repl parc.Expr) parc.Expr {
	switch n := e.(type) {
	case nil:
		return nil
	case *parc.IntLit, *parc.FloatLit:
		return e
	case *parc.VarRef:
		if n.Name == name {
			return repl
		}
		return e
	case *parc.IndexExpr:
		out := &parc.IndexExpr{Name: n.Name}
		for _, ix := range n.Indices {
			out.Indices = append(out.Indices, substVar(ix, name, repl))
		}
		return out
	case *parc.CallExpr:
		out := &parc.CallExpr{Name: n.Name}
		for _, a := range n.Args {
			out.Args = append(out.Args, substVar(a, name, repl))
		}
		return out
	case *parc.UnaryExpr:
		return &parc.UnaryExpr{Op: n.Op, X: substVar(n.X, name, repl)}
	case *parc.BinaryExpr:
		return parc.NewBinary(n.Op, substVar(n.X, name, repl), substVar(n.Y, name, repl))
	}
	return e
}

// pipelineTarget rewrites a target's indices for the next iteration of loop
// m: every use of m's induction variable becomes (var + step).
func pipelineTarget(t *parc.RangeRef, m *parc.ForStmt, consts map[string]int64) *parc.RangeRef {
	step := int64(1)
	if m.Step != nil {
		if v, _, f := parc.FoldConst(m.Step, consts); f == parc.Folded {
			step = v
		}
	}
	next := parc.NewBinary(parc.TokPlus, parc.NewVarRef(m.Var), parc.NewIntLit(step))
	if step < 0 {
		next = parc.NewBinary(parc.TokMinus, parc.NewVarRef(m.Var), parc.NewIntLit(-step))
	}
	out := &parc.RangeRef{Name: t.Name}
	for _, ri := range t.Indices {
		out.Indices = append(out.Indices, parc.RangeIndex{
			Lo: substVar(ri.Lo, m.Var, next),
			Hi: substVar(ri.Hi, m.Var, next),
		})
	}
	return out
}

// targetFor builds the annotation's RangeRef for a hoisted placement: each
// dimension covered by a hoisted loop becomes a lo:hi range derived from the
// loop bounds (shifted by the affine offset); other dimensions keep the
// reference's index expression.
func (pl *planner) targetFor(ref analysis.Ref, hoisted []*parc.ForStmt) *parc.RangeRef {
	out := &parc.RangeRef{Name: ref.Var}
	for _, ix := range ref.Indices {
		ri := parc.RangeIndex{Lo: ix}
		for _, l := range hoisted {
			if !analysis.MentionsVar(ix, l.Var) {
				continue
			}
			off, neg, okAff := analysis.AffineInVar(ix, l.Var)
			if !okAff {
				continue // unreachable: hoist() verified affinity
			}
			lo, hi := l.From, l.To
			if l.Step != nil {
				if v, _, f := parc.FoldConst(l.Step, pl.prog.ConstVal); f == parc.Folded && v < 0 {
					lo, hi = hi, lo
				}
			}
			ri = parc.RangeIndex{Lo: shift(lo, off, neg), Hi: shift(hi, off, neg)}
			break
		}
		out.Indices = append(out.Indices, ri)
	}
	return out
}

// shift applies an affine offset to a bound expression: e+off or e-off.
func shift(e parc.Expr, off parc.Expr, neg bool) parc.Expr {
	if off == nil {
		return e
	}
	op := parc.TokPlus
	if neg {
		op = parc.TokMinus
	}
	return parc.NewBinary(op, e, off)
}

// singleTarget builds a RangeRef naming exactly the reference's element.
func singleTarget(ref analysis.Ref) *parc.RangeRef {
	out := &parc.RangeRef{Name: ref.Var}
	for _, ix := range ref.Indices {
		out.Indices = append(out.Indices, parc.RangeIndex{Lo: ix})
	}
	return out
}

// addInsertion registers a planned edit, deduplicating by key.
func (pl *planner) addInsertion(kind parc.AnnKind, anchor parc.Stmt, where whereKind, target *parc.RangeRef) {
	key := fmt.Sprintf("%d|%d|%s|%s", anchor.ID(), where, kind, parc.RangeRefString(target))
	if _, dup := pl.insertions[key]; dup {
		return
	}
	pl.insertions[key] = &insertion{
		anchorID: anchor.ID(),
		where:    where,
		stmts:    []parc.Stmt{&parc.CICOStmt{Kind: kind, Target: target}},
		sortKey:  key,
	}
}

// addGeneratedLoop registers a generated annotation loop (Section 4.3's
// "generating new loops" presentation), e.g.
//
//	for __cico0 = 2 to 14 step 2 { check_out_x A[__cico0]; }
func (pl *planner) addGeneratedLoop(kind parc.AnnKind, anchor parc.Stmt, where whereKind,
	varName string, lo, hi, step int64) {

	key := fmt.Sprintf("%d|%d|%s|gen:%s:%d:%d:%d", anchor.ID(), where, kind, varName, lo, hi, step)
	if _, dup := pl.insertions[key]; dup {
		return
	}
	iv := pl.counterName(anchor)
	cico := &parc.CICOStmt{Kind: kind, Target: &parc.RangeRef{
		Name:    varName,
		Indices: []parc.RangeIndex{{Lo: parc.NewVarRef(iv)}},
	}}
	loop := &parc.ForStmt{
		Var:  iv,
		From: parc.NewIntLit(lo),
		To:   parc.NewIntLit(hi),
		Step: parc.NewIntLit(step),
		Body: &parc.Block{Stmts: []parc.Stmt{cico}},
	}
	pl.insertions[key] = &insertion{
		anchorID: anchor.ID(),
		where:    where,
		stmts:    []parc.Stmt{loop},
		sortKey:  key,
	}
}

// counterName names a generated loop's counter: __cicoN for the first N from
// the insertion count up that the anchor's function does not already bind
// (ParC scoping is function-wide, so a bound name would make the loop
// overwrite the user's variable) and that is neither a constant nor a shared
// variable (the annotated program would not check).
func (pl *planner) counterName(anchor parc.Stmt) string {
	var bound map[string]parc.Binding
	if fn := pl.info.Func(anchor.ID()); fn != nil {
		bound = fn.Bindings
	}
	for n := len(pl.insertions); ; n++ {
		name := fmt.Sprintf("__cico%d", n)
		_, local := bound[name]
		_, isConst := pl.prog.ConstVal[name]
		_, shared := pl.prog.SharedMap[name]
		if !local && !isConst && !shared {
			return name
		}
	}
}

// addFlag inserts a data race / false sharing comment before the reference
// and records it in the report.
func (pl *planner) addFlag(kind string, w *siteWork, ref analysis.Ref, epoch int) {
	text := fmt.Sprintf("%s on %s", titleCase(kind), parc.RangeRefString(singleTarget(ref)))
	key := fmt.Sprintf("%d|flag|%s", w.site.ID(), text)
	if !pl.flags[key] {
		pl.flags[key] = true
		pl.insertions[key] = &insertion{
			anchorID: w.site.ID(),
			where:    whereBefore,
			stmts:    []parc.Stmt{&parc.CommentStmt{Text: text}},
			sortKey:  key,
		}
		pl.reports = append(pl.reports, ConflictReport{
			Kind:  kind,
			Var:   w.varName,
			Epoch: epoch,
			Pos:   w.site.Position(),
			Addrs: len(w.merged),
		})
	}
}

func titleCase(s string) string {
	words := strings.Fields(s)
	for i, w := range words {
		words[i] = strings.ToUpper(w[:1]) + w[1:]
	}
	return strings.Join(words, " ")
}

// sortedInsertions returns the plan in deterministic order.
func (pl *planner) sortedInsertions() []*insertion {
	out := make([]*insertion, 0, len(pl.insertions))
	for _, ins := range pl.insertions {
		out = append(out, ins)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].sortKey < out[j].sortKey })
	return out
}

// progression checks whether the sorted element indices form an arithmetic
// progression, returning (lo, hi, step).
func progression(indices []int64) (lo, hi, step int64, ok bool) {
	if len(indices) < 2 {
		return 0, 0, 0, false
	}
	step = indices[1] - indices[0]
	if step <= 1 {
		return 0, 0, 0, false
	}
	for i := 2; i < len(indices); i++ {
		if indices[i]-indices[i-1] != step {
			return 0, 0, 0, false
		}
	}
	return indices[0], indices[len(indices)-1], step, true
}
