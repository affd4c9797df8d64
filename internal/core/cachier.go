package core

import (
	"fmt"
	"sort"

	"cachier/internal/analysis"
	"cachier/internal/cico"
	"cachier/internal/memory"
	"cachier/internal/parc"
	"cachier/internal/trace"
)

// Options configures Cachier.
type Options struct {
	// Style selects Programmer or Performance CICO (Section 4.1).
	Style Style

	// Prefetch additionally inserts prefetch_x/prefetch_s annotations,
	// hoisted to the start of the enclosing block so their latency overlaps
	// preceding computation. Only Performance CICO runs use prefetch, as in
	// the paper's evaluation.
	Prefetch bool

	// CacheSize is the target machine's per-node cache capacity in bytes
	// (placement models the finite cache; Section 4.2). Defaults to 256 KB.
	// One hoisted annotation's footprint may occupy half of it before
	// placement descends a loop level.
	CacheSize int
}

// DefaultOptions returns Performance CICO for the paper's machine.
func DefaultOptions() Options {
	return Options{Style: StylePerformance, CacheSize: 256 * 1024}
}

// Result is an annotation run's output. Its product is text: a caller that
// executes the annotated program parses Source itself.
type Result struct {
	Source      string           // annotated program text
	Reports     []ConflictReport // data races and false sharing found
	Annotations int              // statements inserted
	Cost        *CostReport      // the CICO cost model's communication summary
}

// Annotate runs the full Cachier pipeline on source text: parse it, then
// AnnotateMulti with the one trace. The trace must come from a simulation of
// the same source text (statement IDs must agree). A caller that executes
// the annotated program parses the result's Source.
func Annotate(src string, tr *trace.Trace, opts Options) (*Result, error) {
	prog, err := parc.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("core: parsing target program: %w", err)
	}
	return AnnotateMulti(prog, []*trace.Trace{tr}, opts)
}

// AnnotateMulti runs Cachier on a checked program: process the traces,
// compute the annotation sets, place them using static program information,
// and print the program with the annotations spliced in. Every trace must
// come from a simulation of prog itself (or of a program parsed from the
// same text), so that its PCs are prog's statement IDs. prog is only read:
// any number of runs and annotations may share it, and its static
// information is built once for all of them (analysis.Analyze). The
// annotated text is returned unparsed; a caller that executes it parses it.
//
// Several traces form a training SET rather than a single execution — the
// alternative Section 4.5 discusses ("The alternative would have been to use
// a training set rather than a single input data set"). Annotation sets are
// computed per trace and merged during placement (duplicate annotations
// collapse), so the result covers the union of the observed behaviours. The
// returned cost report and conflict list describe the first trace.
func AnnotateMulti(prog *parc.Program, traces []*trace.Trace, opts Options) (*Result, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("core: AnnotateMulti needs at least one trace")
	}
	if opts.CacheSize <= 0 {
		opts.CacheSize = 256 * 1024
	}
	if traces[0].BlockSize <= 0 {
		return nil, fmt.Errorf("core: trace has no block size")
	}
	layout, err := memory.New(prog, traces[0].BlockSize)
	if err != nil {
		return nil, err
	}
	info := analysis.Analyze(prog)
	pl := newPlanner(prog, info, layout, opts)

	var firstEpochs []*EpochSets
	var firstAnn [][]AnnSets
	for ti, tr := range traces {
		if tr.BlockSize != traces[0].BlockSize {
			return nil, fmt.Errorf("core: trace %d has block size %d, first has %d",
				ti, tr.BlockSize, traces[0].BlockSize)
		}
		if err := checkLabels(layout, tr); err != nil {
			return nil, err
		}
		epochs := ProcessTrace(tr)
		conflicts := FindAllConflicts(epochs, tr.BlockSize)
		ann := ComputeAnnotations(epochs, conflicts, opts.Style)
		// Prefetch-shared candidates come from the Programmer-style read sets
		// even in Performance mode.
		var readAnn [][]AnnSets
		if opts.Prefetch && opts.Style == StylePerformance {
			readAnn = ComputeAnnotations(epochs, conflicts, StyleProgrammer)
		}
		for _, g := range groupEpochs(epochs) {
			pl.planGroup(g, epochs, conflicts, ann, readAnn)
		}
		if ti == 0 {
			firstEpochs, firstAnn = epochs, ann
		}
	}

	edits, inserted, err := applyInsertions(prog, info, pl.sortedInsertions())
	if err != nil {
		return nil, err
	}
	sort.Slice(pl.reports, func(i, j int) bool {
		if pl.reports[i].Epoch != pl.reports[j].Epoch {
			return pl.reports[i].Epoch < pl.reports[j].Epoch
		}
		return pl.reports[i].Var < pl.reports[j].Var
	})
	return &Result{
		Source:      parc.PrintEdited(prog, edits),
		Reports:     pl.reports,
		Annotations: inserted,
		Cost:        buildCostReport(firstEpochs, firstAnn, layout),
	}, nil
}

// checkLabels cross-checks the trace's labelled regions against the
// program's layout, catching trace/program mismatches early.
func checkLabels(layout *memory.Layout, tr *trace.Trace) error {
	for _, l := range tr.Labels {
		if r := layout.RegionOf(l.Base); r == nil || r.BaseAddr != l.Base || r.Label != l.Name {
			return fmt.Errorf("core: trace label %q at base %d does not match the program's layout (trace from a different program?)", l.Name, l.Base)
		}
	}
	return nil
}

// groupEpochs groups dynamic epoch indices by their ending barrier PC, so a
// loop-executed epoch is annotated once (Section 4.3's duplicate
// suppression). Groups are ordered by first occurrence.
func groupEpochs(epochs []*EpochSets) [][]int {
	byPC := make(map[int]int) // barrier PC -> group index
	var out [][]int
	for i, es := range epochs {
		gi, ok := byPC[es.BarrierPC]
		if !ok {
			gi = len(out)
			byPC[es.BarrierPC] = gi
			out = append(out, nil)
		}
		out[gi] = append(out[gi], i)
	}
	return out
}

// planGroup plans all insertions for one static epoch (a group of dynamic
// epochs sharing a barrier PC).
func (pl *planner) planGroup(g []int, epochs []*EpochSets, conflicts []*Conflicts,
	ann [][]AnnSets, readAnn [][]AnnSets) {

	nonDRFS := func(pick func(a AnnSets) AddrSet) func(e, n int) (AddrSet, func(uint64) bool) {
		return func(e, n int) (AddrSet, func(uint64) bool) {
			d := conflicts[e].cursor()
			return pick(ann[e][n]), func(a uint64) bool { return !d.has(a) }
		}
	}
	onlyDRFS := func(pick func(a AnnSets) AddrSet) func(e, n int) (AddrSet, func(uint64) bool) {
		return func(e, n int) (AddrSet, func(uint64) bool) {
			d := conflicts[e].cursor()
			return pick(ann[e][n]), d.has
		}
	}
	cox := func(a AnnSets) AddrSet { return a.CoX }
	cos := func(a AnnSets) AddrSet { return a.CoS }
	ci := func(a AnnSets) AddrSet { return a.CI }

	ctx := pl.groupContext(epochs, g)
	pl.curEpochs, pl.curGroup = epochs, g
	pl.groupSpans = make(map[string][]uint64)
	defer func() { pl.curEpochs, pl.curGroup, pl.groupSpans = nil, nil, nil }()

	// Hoisted placements for unconflicted locations.
	for _, w := range pl.attribute(epochs, g, nonDRFS(cox), false, false) {
		pl.placeHoisted(parc.AnnCheckOutX, w, whereBefore, true, ctx)
	}
	for _, w := range pl.attribute(epochs, g, nonDRFS(cos), false, false) {
		pl.placeHoisted(parc.AnnCheckOutS, w, whereBefore, false, ctx)
	}
	for _, w := range pl.pushCheckIns(pl.attribute(epochs, g, nonDRFS(ci), true, false)) {
		pl.placeHoisted(parc.AnnCheckIn, w, whereAfter, false, ctx)
	}

	// Pinned placements for conflicted locations: immediately around every
	// referencing statement, with a race / false-sharing flag.
	for _, w := range pl.attribute(epochs, g, onlyDRFS(cox), false, true) {
		pl.placePinned(parc.AnnCheckOutX, w, whereBefore, true, epochs, conflicts, g)
	}
	for _, w := range pl.attribute(epochs, g, onlyDRFS(cos), false, true) {
		pl.placePinned(parc.AnnCheckOutS, w, whereBefore, false, epochs, conflicts, g)
	}
	for _, w := range pl.attribute(epochs, g, onlyDRFS(ci), true, true) {
		pl.placePinned(parc.AnnCheckIn, w, whereAfter, false, epochs, conflicts, g)
	}

	// Prefetches: issue early (block start) for unconflicted check-outs and
	// for the read sets a Programmer run would check out shared.
	if pl.opts.Prefetch && pl.opts.Style == StylePerformance {
		// A group's annotation executes on every dynamic instance of the
		// epoch, so an address is prefetchable only if nothing writes it
		// within the lookahead window of ANY instance: passing the filter
		// only on the final iteration (after which nothing writes anything)
		// must not license a prefetch that runs on every iteration.
		var soon []uint64
		done := 0 // epochs below this index are already in
		for _, e := range g {
			for k := max(e, done); k <= e+ciLookahead && k < len(epochs); k++ {
				soon = append(soon, epochs[k].AllSW...)
				done = k + 1
			}
		}
		writtenSoon := normalize(soon)
		// An exclusive prefetch of a block some other node reads during the
		// same epoch (a boundary block read as a stencil neighbour) would
		// be snatched back before the write, making the fault worse, not
		// better — prefetch only privately-written blocks early.
		touched := make([]cursor, len(g)) // into each group epoch's touch table
		coxPrefetchable := func(e, n int) (AddrSet, func(uint64) bool) {
			d := conflicts[e].cursor()
			for i, ge := range g {
				touched[i] = cursor{s: epochs[ge].Touched.Addrs}
			}
			return ann[e][n].CoX, func(a uint64) bool {
				if d.has(a) {
					return false
				}
				for i, ge := range g {
					if c := &touched[i]; c.has(a) && epochs[ge].Touched.Nodes[c.i].hasOther(n) {
						return false
					}
				}
				return true
			}
		}
		for _, w := range pl.attribute(epochs, g, coxPrefetchable, false, false) {
			pl.placePrefetch(parc.AnnPrefetchX, w, true)
		}
		if readAnn != nil {
			// Prefetch shared only what nobody is about to write: a shared
			// prefetch of data the owner writes this epoch or the next just
			// creates a copy to invalidate.
			nonDRFSRead := func(e, n int) (AddrSet, func(uint64) bool) {
				d, soon := conflicts[e].cursor(), cursor{s: writtenSoon}
				return readAnn[e][n].CoS, func(a uint64) bool {
					return !d.has(a) && !soon.has(a)
				}
			}
			for _, w := range pl.attribute(epochs, g, nonDRFSRead, false, false) {
				pl.placePrefetch(parc.AnnPrefetchS, w, false)
			}
		}
	}
}

// pushCheckIns moves each check-in work item to the last statement in its
// epoch region that statically references the variable, merging items that
// land on the same site.
func (pl *planner) pushCheckIns(works []*siteWork) []*siteWork {
	type key struct {
		site int
		v    string
	}
	merged := make(map[key]*siteWork)
	var order []key
	for _, w := range works {
		site := pl.lastRefSite(w.varName, w.site)
		k := key{site: site.ID(), v: w.varName}
		m := merged[k]
		if m == nil {
			m = &siteWork{site: site, varName: w.varName, perNode: make([]AddrSet, len(w.perNode))}
			merged[k] = m
			order = append(order, k)
		}
		for n, set := range w.perNode {
			m.perNode[n] = append(m.perNode[n], set...)
		}
	}
	out := make([]*siteWork, 0, len(merged))
	for _, k := range order {
		out = append(out, merged[k].finish())
	}
	return out
}

// placeHoisted emits a hoisted (or generated-loop) annotation for
// unconflicted work; work anchored at unstructured, repeatedly-executing
// references is relocated to the epoch boundary instead.
func (pl *planner) placeHoisted(kind parc.AnnKind, w *siteWork, where whereKind, wantWrite bool, ctx groupCtx) {
	ref, ok := pl.refFor(w.site, w.varName, wantWrite)
	if !ok {
		return
	}
	anchor, hoisted := pl.hoist(w, ref)
	if len(hoisted) == 0 && pl.dynamicRef(ref) && pl.executesRepeatedly(w.site) {
		pl.placeRelocated(kind, w, ctx)
		return
	}
	if lo, hi, step, genOK := pl.generatedLoop(w, ref, hoisted); genOK {
		pl.addGeneratedLoop(kind, anchor, where, w.varName, lo, hi, step)
		return
	}
	pl.addInsertion(kind, anchor, where, pl.targetFor(ref, hoisted))
}

// generatedLoop decides whether the needed address set is better presented
// as a generated strided loop (Section 4.3): the variable is 1-D, every
// node needs the same set, the set is an arithmetic progression with stride
// greater than one, and a hoisted range would over-cover it.
func (pl *planner) generatedLoop(w *siteWork, ref analysis.Ref, hoisted []*parc.ForStmt) (lo, hi, step int64, ok bool) {
	if len(hoisted) == 0 {
		return 0, 0, 0, false
	}
	decl := pl.prog.SharedMap[w.varName]
	if decl == nil || len(decl.DimSizes) != 1 {
		return 0, 0, 0, false
	}
	for _, set := range w.perNode {
		if len(set) != 0 && len(set) != len(w.merged) {
			return 0, 0, 0, false // node-dependent sets
		}
	}
	region := pl.layout.Region(w.varName)
	indices := make([]int64, 0, len(w.merged))
	ixBuf := make([]int, len(decl.DimSizes))
	for _, addr := range w.merged {
		ix, err := region.IndexInto(addr, ixBuf)
		if err != nil {
			return 0, 0, 0, false
		}
		indices = append(indices, int64(ix[0]))
	}
	return progression(indices)
}

// placePinned emits an annotation immediately around the reference and
// flags the conflict.
func (pl *planner) placePinned(kind parc.AnnKind, w *siteWork, where whereKind, wantWrite bool,
	epochs []*EpochSets, conflicts []*Conflicts, g []int) {

	ref, ok := pl.refFor(w.site, w.varName, wantWrite)
	if !ok {
		return
	}
	pl.addInsertion(kind, w.site, where, singleTarget(ref))

	var isRace, isFS bool
	for _, ei := range g {
		for _, addr := range w.merged {
			if conflicts[ei].Race.Has(addr) {
				isRace = true
			}
			if conflicts[ei].FalseShare.Has(addr) {
				isFS = true
			}
		}
	}
	if isRace {
		pl.addFlag("data race", w, ref, epochs[g[0]].Index)
	}
	if isFS {
		pl.addFlag("false sharing", w, ref, epochs[g[0]].Index)
	}
}

// placePrefetch emits a prefetch at the start of the anchor's enclosing
// block, covering the same range the check-out would.
func (pl *planner) placePrefetch(kind parc.AnnKind, w *siteWork, wantWrite bool) {
	ref, ok := pl.refFor(w.site, w.varName, wantWrite)
	if !ok {
		return
	}
	if pl.dynamicRef(ref) {
		return // data-dependent addresses: nothing useful to prefetch early
	}
	// The symbolic annotation executes on every node; if only a few nodes
	// actually needed these blocks (edge processors reading a frame row),
	// the others would prefetch data that is about to be written.
	participants := 0
	for _, set := range w.perNode {
		if len(set) > 0 {
			participants++
		}
	}
	if 2*participants < len(w.perNode) {
		return
	}
	anchor, hoisted := pl.hoist(w, ref)
	if _, _, _, genOK := pl.generatedLoop(w, ref, hoisted); genOK {
		return // strided sets are not worth prefetching block by block
	}
	// A check-out placed next to its use may over-cover harmlessly, but an
	// early prefetch of blocks that did not actually need fetching steals
	// them from writers; require the hoisted range to roughly match the
	// traced set before prefetching.
	decl := pl.prog.SharedMap[w.varName]
	spans := pl.dimSpans(w, decl)
	coveredBlocks := pl.footprint(ref, decl, hoisted, spans) / uint64(pl.layout.BlockSize)
	// The symbolic range is executed by every node with its own bounds, so
	// it must match the smallest per-node need, not just the largest: one
	// node legitimately covering a frame row must not make every other node
	// prefetch blocks that are about to be written.
	neededBlocks := ^uint64(0)
	for _, set := range w.perNode {
		if len(set) == 0 {
			continue
		}
		if n := cico.BlocksTouched(set, pl.layout.BlockSize); n < neededBlocks {
			neededBlocks = n
		}
	}
	if coveredBlocks > 2*neededBlocks {
		return
	}
	target := pl.targetFor(ref, hoisted)

	// Software-pipelined prefetch: when the annotation sits inside an
	// enclosing loop whose induction variable appears in the reference,
	// prefetch the NEXT iteration's range at the current iteration's start,
	// overlapping the transfer with this iteration's computation (the
	// placement the paper faults the hand annotators for getting wrong).
	// The final iteration's overshoot is clamped harmlessly — annotations
	// never affect semantics.
	loops := pl.info.Loops(anchor.ID())
	if len(loops) > 0 {
		m := loops[len(loops)-1]
		affine := false
		for _, ix := range ref.Indices {
			if analysis.MentionsVar(ix, m.Var) {
				if _, _, ok := analysis.AffineInVar(ix, m.Var); ok {
					affine = true
				}
				break
			}
		}
		if affine && unitStep(m, pl.prog.ConstVal) {
			pl.addInsertion(kind, anchor, whereBefore, pipelineTarget(target, m, pl.prog.ConstVal))
			return
		}
	}
	pl.addInsertion(kind, anchor, whereBlockStart, target)
}
