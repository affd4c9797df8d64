// Package conformance is the differential backbone demanded by the paper's
// central claim: CICO annotations are semantics-preserving performance
// directives (Sections 3-5). For each generated ParC program the harness
// runs the complete pipeline — trace, Cachier placement in every style,
// simulation of every variant — and checks all of it against the sequential
// oracle:
//
//  1. Final shared memory of every variant (unannotated, Performance CICO,
//     Performance+prefetch, Programmer CICO) is bit-identical to the
//     oracle's, and print output matches as a multiset.
//  2. Dir1SW never violates its coherence invariants, checked per access by
//     the coherence probe rather than only at barriers.
//  3. The CICO cost equations bound the measured protocol counts: a
//     program that writes W distinct blocks must check out at least W
//     blocks exclusively, the annotation sets stay inside the trace's
//     read/write footprints, and the cost report obeys the model's own
//     arithmetic.
//
// The same entry points back the deterministic 200-seed corpus test and the
// native fuzz targets.
package conformance

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sort"

	"cachier/internal/cico"
	"cachier/internal/coherence"
	"cachier/internal/core"
	"cachier/internal/obs"
	"cachier/internal/oracle"
	"cachier/internal/parc"
	"cachier/internal/parcgen"
	"cachier/internal/sim"
	"cachier/internal/staticanno"
	"cachier/internal/testutil"
	"cachier/internal/trace"
	"cachier/internal/vet"
)

// Nodes is the simulated machine size used for generated programs; it must
// match parcgen.DefaultConfig().Nodes so partitions divide evenly.
const Nodes = 4

const blockSize = 32

// simConfig returns the harness's machine: small, probed, self-checking.
func simConfig(mode sim.Mode) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Nodes = Nodes
	cfg.BlockSize = blockSize
	cfg.Mode = mode
	cfg.SelfCheck = true
	cfg.Probe = true
	return cfg
}

// RunSeed generates the seed's program and runs the full differential check.
func RunSeed(seed int64) error {
	return RunSource(parcgen.Generate(seed))
}

// RunSource runs the differential check on one ParC source text.
func RunSource(src string) error {
	prog, err := parc.Parse(src)
	if err != nil {
		return fmt.Errorf("generated program invalid: %w", err)
	}

	// Static checks: the generator partitions all shared writes by node
	// (disjoint slices or common locks), so the race detector must find
	// nothing at all — any finding here is a vet false positive.
	if rep := vet.Analyze(prog, vet.Options{Nprocs: Nodes}); len(rep.Findings) != 0 {
		return fmt.Errorf("vet reported findings on a generated program:\n%s", rep)
	}

	// Printer round trip: the printed form must re-parse to the same AST.
	printed := parc.Print(prog)
	reparsed, err := parc.Parse(printed)
	if err != nil {
		return fmt.Errorf("printed program does not re-parse: %w\n%s", err, printed)
	}
	if err := parc.ASTEqual(prog, reparsed); err != nil {
		return fmt.Errorf("print/re-parse changed the AST: %w", err)
	}

	// Ground truth.
	want, err := oracle.Run(prog, oracle.Config{Nprocs: Nodes, BlockSize: blockSize})
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}

	// Trace the unannotated program (ModeTrace also executes it fully, so it
	// is the first simulator variant to survive the memory check).
	traceRes, err := sim.Run(prog, simConfig(sim.ModeTrace))
	if err != nil {
		return fmt.Errorf("trace run: %w", err)
	}
	if err := checkVariant("trace-mode", traceRes, want); err != nil {
		return err
	}

	// The Section 4.1 equations must hold on this real trace, in both
	// styles, exactly as they do on testutil's synthetic ones.
	epochs := core.ProcessTrace(traceRes.Trace)
	conflicts := core.FindAllConflicts(epochs, traceRes.Trace.BlockSize)
	for _, style := range []core.Style{core.StyleProgrammer, core.StylePerformance} {
		ann := core.ComputeAnnotations(epochs, conflicts, style)
		if err := testutil.CheckAnnotationSets(epochs, ann, style); err != nil {
			return fmt.Errorf("annotation sets: %w", err)
		}
	}

	// Unannotated perf run.
	plainRes, err := sim.Run(prog, simConfig(sim.ModePerf))
	if err != nil {
		return fmt.Errorf("unannotated run: %w", err)
	}
	if err := checkVariant("unannotated", plainRes, want); err != nil {
		return err
	}
	if err := checkCheckoutBound("unannotated", plainRes.Stats, want); err != nil {
		return err
	}

	// Reference differential: the production engine is behind every run
	// above, so those only prove it against the oracle result-for-result.
	// Re-running the program on the reference engine (the tree-walking
	// interpreter, no lane view) and demanding a bit-identical machine on
	// every surface pins production to the reference access-for-access.
	if err := checkEngineSource("unannotated", prog, "", sim.ModePerf); err != nil {
		return err
	}

	// Observability differential: the recorder only observes, so attaching
	// one (timeline included) must leave the simulation bit-identical —
	// same cycles, same protocol stats. The snapshot must be internally
	// consistent (per-epoch sums vs protocol totals), deterministic across
	// two identical runs, and the timeline must satisfy the trace-event
	// schema invariants.
	if err := checkObservability(prog, plainRes); err != nil {
		return err
	}

	// Cachier placement in all three styles, each simulated from its
	// printed source, parsed here, so the annotated text round-trips through
	// the real parser exactly as a user's file would.
	for _, v := range staticanno.Styles() {
		res, err := core.AnnotateMulti(prog, []*trace.Trace{traceRes.Trace}, v.Opts)
		if err != nil {
			return fmt.Errorf("%s annotate: %w", v.Name, err)
		}
		if err := checkCostReport(v.Name, res.Cost, epochs); err != nil {
			return err
		}
		annProg, err := parc.Parse(res.Source)
		if err != nil {
			return fmt.Errorf("%s: annotated program does not re-parse: %w\n%s", v.Name, err, res.Source)
		}
		// Cachier's inserted annotations must satisfy the CICO protocol
		// lint (and must not, of course, have introduced races).
		annVet := vet.Analyze(annProg, vet.Options{Nprocs: Nodes})
		if races := annVet.Races(); len(races) != 0 {
			return fmt.Errorf("%s: annotated program has races:\n%s\n%s", v.Name, annVet, res.Source)
		}
		if lintErrs := annVet.LintErrors(); len(lintErrs) != 0 {
			return fmt.Errorf("%s: annotated program fails the CICO lint:\n%s\n%s", v.Name, annVet, res.Source)
		}
		annRes, err := sim.Run(annProg, simConfig(sim.ModePerf))
		if err != nil {
			return fmt.Errorf("%s run: %w\n%s", v.Name, err, res.Source)
		}
		if err := checkVariant(v.Name, annRes, want); err != nil {
			return fmt.Errorf("%w\n%s", err, res.Source)
		}
		if err := checkCheckoutBound(v.Name, annRes.Stats, want); err != nil {
			return err
		}
	}

	// Eviction stress: a cache far smaller than the data forces constant
	// replacement traffic through the same invariants.
	tiny := simConfig(sim.ModePerf)
	tiny.CacheSize = 256
	tiny.Assoc = 2
	tinyRes, err := sim.Run(prog, tiny)
	if err != nil {
		return fmt.Errorf("tiny-cache run: %w", err)
	}
	return checkVariant("tiny-cache", tinyRes, want)
}

// RunAnnotatedEquivalence is the FuzzAnnotatedEquivalence core: it focuses
// on the annotated artifact itself. The annotated source must parse, its
// sequential meaning must be identical to the plain program's (the oracle
// ignores directives, so any divergence means the rewriter changed real
// semantics — a clobbered variable, a broken loop), and it must still match
// the oracle when simulated with prefetches disabled, the paper's
// with/without-prefetch comparison on the same source.
func RunAnnotatedEquivalence(seed int64) error {
	src := parcgen.Generate(seed)
	prog, err := parc.Parse(src)
	if err != nil {
		return fmt.Errorf("generated program invalid: %w", err)
	}
	want, err := oracle.Run(prog, oracle.Config{Nprocs: Nodes, BlockSize: blockSize})
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	annProg, annSrc, err := annotatedForm(prog)
	if err != nil {
		return err
	}
	annOracle, err := oracle.Run(annProg, oracle.Config{Nprocs: Nodes, BlockSize: blockSize})
	if err != nil {
		return fmt.Errorf("oracle on annotated source: %w\n%s", err, annSrc)
	}
	if err := testutil.DiffSharedMemory(annOracle.Layout, annOracle.Store, want.Store); err != nil {
		return fmt.Errorf("annotation changed sequential semantics: %w\n%s", err, annSrc)
	}
	cfg := simConfig(sim.ModePerf)
	cfg.DisablePrefetch = true
	annRes, err := sim.Run(annProg, cfg)
	if err != nil {
		return fmt.Errorf("no-prefetch run: %w\n%s", err, annSrc)
	}
	return checkVariant("no-prefetch", annRes, want)
}

// annotatedForm traces prog on the harness's machine and returns its
// Performance+prefetch annotated form, parsed, and as text.
func annotatedForm(prog *parc.Program) (*parc.Program, string, error) {
	traceRes, err := sim.Run(prog, simConfig(sim.ModeTrace))
	if err != nil {
		return nil, "", fmt.Errorf("trace run: %w", err)
	}
	res, err := core.AnnotateMulti(prog, []*trace.Trace{traceRes.Trace}, core.Options{Style: core.StylePerformance, Prefetch: true})
	if err != nil {
		return nil, "", fmt.Errorf("annotate: %w", err)
	}
	annProg, err := parc.Parse(res.Source)
	if err != nil {
		return nil, "", fmt.Errorf("annotated program does not re-parse: %w\n%s", err, res.Source)
	}
	return annProg, res.Source, nil
}

// RunReferenceEquivalence is the engine differential: the production engine
// (compiled lanes, with and without their lane view) must be observationally
// indistinguishable from the reference engine (tree-walker, every event a
// Machine call) — not statistically close, bit-identical. It runs the
// seed's program under the given coherence protocol spec ("" is Dir1SW) on
// both, plain and — when annotated is set — in its Performance+prefetch
// annotated form (directives re-key and clear the cache keys a lane counts
// hits off).
func RunReferenceEquivalence(seed int64, protocol string, plain, annotated bool) error {
	src := parcgen.Generate(seed)
	prog, err := parc.Parse(src)
	if err != nil {
		return fmt.Errorf("generated program invalid: %w", err)
	}
	if plain {
		if err := checkEngineSource("plain/"+protocol, prog, protocol, sim.ModePerf); err != nil {
			return err
		}
	}
	if !annotated {
		return nil
	}
	annProg, _, err := annotatedForm(prog)
	if err != nil {
		return err
	}
	return checkEngineSource("annotated/"+protocol, annProg, protocol, sim.ModePerf)
}

// RunTraceEquivalence is the same differential in trace mode, where the
// barrier cache flushes clear the cache keys and the surface that matters is
// the miss trace Cachier consumes.
func RunTraceEquivalence(seed int64) error {
	prog, err := parc.Parse(parcgen.Generate(seed))
	if err != nil {
		return fmt.Errorf("generated program invalid: %w", err)
	}
	return checkEngineSource("trace-mode", prog, "", sim.ModeTrace)
}

// checkEngineSource runs one program on the production engine and on the
// reference engine, under the given coherence protocol spec ("" is Dir1SW),
// with full observability attached, and diffs every observable surface:
// error text, cycles, per-node clocks, protocol stats, shared memory,
// output order, miss trace, snapshot JSON, and timeline JSON. Each run must
// report the engine it was asked for, or the check would be vacuous.
//
// A recorder or the probe takes the lane view away (coherence.System.LaneView),
// so a third run, production with neither, is the one in which lanes charge
// work and count hits in place; it must match the recorded production run on
// every surface a bare run has.
func checkEngineSource(name string, prog *parc.Program, protocol string, mode sim.Mode) error {
	run := func(reference, bare bool) (*sim.Result, *obs.Recorder, error) {
		cfg := simConfig(mode)
		cfg.Protocol = protocol
		cfg.TreeWalk = reference
		if bare {
			cfg.Probe = false
		} else {
			cfg.Recorder = obs.New(cfg.Nodes, cfg.BlockSize)
			cfg.Recorder.EnableTimeline()
		}
		res, err := sim.Run(prog, cfg)
		return res, cfg.Recorder, err
	}
	prod, prodRec, prodErr := run(false, false)
	ref, refRec, refErr := run(true, false)
	bare, _, bareErr := run(false, true)
	for _, o := range []struct {
		name string
		err  error
	}{{"reference", refErr}, {"bare production", bareErr}} {
		if (prodErr == nil) != (o.err == nil) {
			return fmt.Errorf("%s: error divergence: production %v, %s %v", name, prodErr, o.name, o.err)
		}
		if prodErr != nil && prodErr.Error() != o.err.Error() {
			return fmt.Errorf("%s: error text divergence:\nproduction: %v\n%s: %v", name, prodErr, o.name, o.err)
		}
	}
	if prodErr != nil {
		return nil
	}
	if prod.Engine != "lanes" || ref.Engine != "reference" || bare.Engine != "lanes" {
		return fmt.Errorf("%s: runs report engines %q, %q and %q, want lanes, reference and lanes",
			name, prod.Engine, ref.Engine, bare.Engine)
	}
	if err := diffResults(name, "reference", prod, ref); err != nil {
		return err
	}
	if err := diffResults(name, "bare production", prod, bare); err != nil {
		return err
	}
	// Dispatched ops are the one count the engines do not share: bytecode
	// instructions on one, statements on the other.
	for _, snap := range []*obs.Snapshot{prod.Snapshot, ref.Snapshot} {
		snap.Interp.Ops = 0
		for i := range snap.PerNode {
			snap.PerNode[i].Ops = 0
		}
	}
	prodSnap, err := prod.Snapshot.MarshalIndentJSON()
	if err != nil {
		return fmt.Errorf("%s: marshal production snapshot: %w", name, err)
	}
	refSnap, err := ref.Snapshot.MarshalIndentJSON()
	if err != nil {
		return fmt.Errorf("%s: marshal reference snapshot: %w", name, err)
	}
	if !bytes.Equal(prodSnap, refSnap) {
		return fmt.Errorf("%s: snapshots diverge", name)
	}
	var prodTL, refTL bytes.Buffer
	if err := prodRec.Timeline("conformance").WriteJSON(&prodTL); err != nil {
		return fmt.Errorf("%s: production timeline: %w", name, err)
	}
	if err := refRec.Timeline("conformance").WriteJSON(&refTL); err != nil {
		return fmt.Errorf("%s: reference timeline: %w", name, err)
	}
	if !bytes.Equal(prodTL.Bytes(), refTL.Bytes()) {
		return fmt.Errorf("%s: timelines diverge", name)
	}
	return nil
}

// diffResults compares two runs on the surfaces every run has.
func diffResults(name, other string, prod, got *sim.Result) error {
	if prod.Cycles != got.Cycles {
		return fmt.Errorf("%s: cycles diverge: production %d, %s %d", name, prod.Cycles, other, got.Cycles)
	}
	if !slices.Equal(prod.NodeCycles, got.NodeCycles) {
		return fmt.Errorf("%s: node cycles diverge from %s", name, other)
	}
	if prod.Stats != got.Stats {
		return fmt.Errorf("%s: protocol stats diverge\nproduction: %+v\n%s: %+v", name, prod.Stats, other, got.Stats)
	}
	if !slices.Equal(prod.SharedReads, got.SharedReads) || !slices.Equal(prod.SharedWrites, got.SharedWrites) {
		return fmt.Errorf("%s: per-node shared reference counts diverge from %s", name, other)
	}
	if !slices.Equal(prod.Store.Words(), got.Store.Words()) {
		return fmt.Errorf("%s: shared memory diverges from %s", name, other)
	}
	if !slices.Equal(prod.Output, got.Output) {
		return fmt.Errorf("%s: output diverges\nproduction: %q\n%s: %q", name, prod.Output, other, got.Output)
	}
	if !reflect.DeepEqual(prod.Trace, got.Trace) {
		return fmt.Errorf("%s: miss traces diverge from %s", name, other)
	}
	return nil
}

// checkObservability re-runs prog with a recorder (and timeline) attached
// and checks it against the plain run; see the call site for the contract.
func checkObservability(prog *parc.Program, plain *sim.Result) error {
	run := func() (*sim.Result, *obs.Recorder, error) {
		cfg := simConfig(sim.ModePerf)
		cfg.Recorder = obs.New(cfg.Nodes, cfg.BlockSize)
		cfg.Recorder.EnableTimeline()
		res, err := sim.Run(prog, cfg)
		return res, cfg.Recorder, err
	}
	res, rec, err := run()
	if err != nil {
		return fmt.Errorf("recorded run: %w", err)
	}
	if res.Cycles != plain.Cycles {
		return fmt.Errorf("observability differential: recorder changed cycles: %d with, %d without",
			res.Cycles, plain.Cycles)
	}
	if res.Stats != plain.Stats {
		return fmt.Errorf("observability differential: recorder changed protocol stats\nwithout: %+v\nwith:    %+v",
			plain.Stats, res.Stats)
	}
	if res.Snapshot == nil {
		return fmt.Errorf("observability differential: recorded run produced no snapshot")
	}
	if err := res.Snapshot.CheckConsistency(); err != nil {
		return fmt.Errorf("observability differential: %w", err)
	}
	tl := rec.Timeline("conformance")
	if tl == nil {
		return fmt.Errorf("observability differential: no timeline despite EnableTimeline")
	}
	if err := tl.Validate(); err != nil {
		return fmt.Errorf("observability differential: invalid timeline: %w", err)
	}
	data, err := res.Snapshot.MarshalIndentJSON()
	if err != nil {
		return fmt.Errorf("observability differential: marshal snapshot: %w", err)
	}
	res2, _, err := run()
	if err != nil {
		return fmt.Errorf("second recorded run: %w", err)
	}
	data2, err := res2.Snapshot.MarshalIndentJSON()
	if err != nil {
		return fmt.Errorf("observability differential: marshal second snapshot: %w", err)
	}
	if !bytes.Equal(data, data2) {
		return fmt.Errorf("observability differential: snapshots of identical runs differ")
	}
	return nil
}

// checkVariant compares one simulation against the oracle: shared memory
// bit-for-bit, print output as a multiset, and barrier count.
func checkVariant(name string, got *sim.Result, want *oracle.Result) error {
	if err := testutil.DiffSharedMemory(got.Layout, got.Store, want.Store); err != nil {
		return fmt.Errorf("%s: memory diverges from oracle: %w", name, err)
	}
	if err := diffOutput(got.Output, want.Output); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if got.Barriers != want.Barriers {
		return fmt.Errorf("%s: %d barriers, oracle saw %d", name, got.Barriers, want.Barriers)
	}
	return nil
}

// diffOutput compares print output as a sorted multiset: inter-node order is
// schedule-dependent even for race-free programs, content is not.
func diffOutput(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("printed %d lines, oracle printed %d", len(got), len(want))
	}
	g := append([]string(nil), got...)
	w := append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("output line %q not matched by oracle's %q", g[i], w[i])
		}
	}
	return nil
}

// checkCheckoutBound asserts the CICO model's floor on measured protocol
// counts: every block the program writes must be acquired exclusively at
// least once — by write miss, write fault, explicit check_out_x, or
// prefetch_x — so the distinct written-block count bounds the sum from
// below (cost model Section 2: "a processor must check out a block to write
// it").
func checkCheckoutBound(name string, st coherence.Stats, want *oracle.Result) error {
	addrs := make([]uint64, 0, len(want.Written))
	for a := range want.Written {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	written := cico.BlocksTouched(addrs, blockSize)
	acq := st.WriteMisses + st.WriteFaults + st.CheckOutX + st.PrefetchX
	if acq < written {
		return fmt.Errorf("%s: wrote %d distinct blocks but acquired only %d exclusively", name, written, acq)
	}
	// Conservation: every access is exactly one of hit, read miss, write
	// miss, or write fault.
	if st.Hits+st.ReadMisses+st.WriteMisses+st.WriteFaults != st.Reads+st.Writes {
		return fmt.Errorf("%s: access outcomes (%d) do not sum to accesses (%d)",
			name, st.Hits+st.ReadMisses+st.WriteMisses+st.WriteFaults, st.Reads+st.Writes)
	}
	return nil
}

// checkCostReport asserts the cost report against the trace it was computed
// from: annotated blocks never exceed the per-node epoch footprints they
// must be subsets of, and the model cost is exactly the model's arithmetic.
func checkCostReport(name string, rep *core.CostReport, epochs []*core.EpochSets) error {
	if rep == nil {
		return fmt.Errorf("%s: no cost report", name)
	}
	var swBlocks, srBlocks, sBlocks uint64
	for _, es := range epochs {
		for _, ns := range es.Nodes {
			swBlocks += cico.BlocksTouched(ns.SW, blockSize)
			srBlocks += cico.BlocksTouched(ns.SR, blockSize)
			sBlocks += cico.BlocksTouched(ns.S(), blockSize)
		}
	}
	if rep.TotalCoX > swBlocks {
		return fmt.Errorf("%s: co_x %d blocks exceeds trace write footprint %d", name, rep.TotalCoX, swBlocks)
	}
	if rep.TotalCoS > srBlocks {
		return fmt.Errorf("%s: co_s %d blocks exceeds trace read footprint %d", name, rep.TotalCoS, srBlocks)
	}
	if rep.TotalCI > sBlocks {
		return fmt.Errorf("%s: ci %d blocks exceeds trace footprint %d", name, rep.TotalCI, sBlocks)
	}
	if wantCost := cico.ProgramCost(rep.TotalCoX+rep.TotalCoS, rep.TotalCI); rep.ModelCost != wantCost {
		return fmt.Errorf("%s: model cost %d, model arithmetic says %d", name, rep.ModelCost, wantCost)
	}
	return nil
}
