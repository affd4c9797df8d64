package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"cachier/internal/coherence"
	"cachier/internal/core"
	"cachier/internal/obs"
	"cachier/internal/parc"
	"cachier/internal/sim"
	"cachier/internal/trace"
)

// workTokens bounds the package's concurrent compute (simulations and
// annotation passes) to the machine's parallelism. Tokens are held only
// while computing, never while waiting on other goroutines, so nested
// fan-out (Figure6 → RunBenchmark → variants) cannot deadlock.
var workTokens = make(chan struct{}, runtime.NumCPU())

func acquireWork() { workTokens <- struct{}{} }
func releaseWork() { <-workTokens }

// Variant names one bar of Figure 6.
type Variant string

// Figure 6 variants. The paper plots unannotated, hand-annotated, and
// Cachier-annotated execution times, and discusses with/without-prefetch
// Cachier numbers in the text.
const (
	VariantNone            Variant = "none"
	VariantHand            Variant = "hand"
	VariantCachier         Variant = "cachier"
	VariantCachierPrefetch Variant = "cachier+prefetch"
)

// Variants lists the comparison variants in presentation order.
func Variants() []Variant {
	return []Variant{VariantNone, VariantHand, VariantCachier, VariantCachierPrefetch}
}

// Row is one benchmark's Figure 6 result.
type Row struct {
	Benchmark string
	Nodes     int
	// Protocol is the coherence protocol's display name ("Dir1SW",
	// "Dir4NB", ...); every variant of a row runs under the same protocol.
	Protocol string
	Cycles   map[Variant]uint64
	Stats    map[Variant]coherence.Stats

	// Walls is each variant's simulation wall-clock on the host (just the
	// measured sim.Run, not tracing or annotation); Engines is the engine
	// that produced it (sim.Result.Engine). Both are filled on every run.
	Walls   map[Variant]time.Duration
	Engines map[Variant]string

	// Snapshots and Recorders hold each variant's structured stats tree and
	// the recorder that produced it (for timeline export); both are nil
	// unless the row came from RunBenchmarkObserved.
	Snapshots map[Variant]*obs.Snapshot
	Recorders map[Variant]*obs.Recorder

	// SharingLoads and SharingStores are the unannotated run's sharing
	// degrees (Section 6's discussion of why Ocean and Mp3d gain most).
	SharingLoads  float64
	SharingStores float64

	// SharedAccesses and AccessCalls sum over the row's five simulations
	// (trace run, four variants): shared loads and stores, and those of them
	// that reached Machine.Access, the rest being hits counted in the lane.
	// BenchmarkFig6 reports them and make profile reads them from there.
	SharedAccesses, AccessCalls uint64

	// AnnotatedSource is the Cachier (no-prefetch) annotated program.
	AnnotatedSource string
	// Reports are the data races / false sharing Cachier flagged.
	Reports []core.ConflictReport
}

func (r *Row) countAccesses(res *sim.Result) {
	for i := range res.SharedReads {
		r.SharedAccesses += res.SharedReads[i] + res.SharedWrites[i]
	}
	r.AccessCalls += res.AccessCalls
}

// Normalized returns the variant's execution time relative to the
// unannotated run (Figure 6's y-axis).
func (r *Row) Normalized(v Variant) float64 {
	base := r.Cycles[VariantNone]
	if base == 0 {
		return 0
	}
	return float64(r.Cycles[v]) / float64(base)
}

// swapSeed rewrites the generated source's SEED constant so a program
// annotated from the training input can be measured on the test input
// (the paper uses different data sets for tracing and measurement,
// Section 6).
func swapSeed(src string, train, test int64) (string, error) {
	from := fmt.Sprintf("const SEED = %d;", train)
	to := fmt.Sprintf("const SEED = %d;", test)
	if !strings.Contains(src, from) {
		return "", fmt.Errorf("bench: training seed constant %q not found", from)
	}
	return strings.Replace(src, from, to, 1), nil
}

// machineConfig returns the simulated machine for a benchmark: the paper's
// 256 KB 4-way 32 B-block caches on the benchmark's node count.
func machineConfig(nodes int) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Nodes = nodes
	// The per-barrier coherence self-check is an assertion, not a model
	// feature: it never alters results (the conformance and fuzz suites run
	// with it on and cross-check this harness's protocol behaviour), and the
	// Figure 6 harness doubles as the wall-clock benchmark, so it runs with
	// assertions off like any measured build.
	cfg.SelfCheck = false
	return cfg
}

// runVariant parses and simulates one program variant in directive mode.
func runVariant(src string, cfg sim.Config) (*sim.Result, error) {
	prog, err := parc.Parse(src)
	if err != nil {
		return nil, err
	}
	return sim.Run(prog, cfg)
}

// RunBenchmark produces one Figure 6 row: trace the unannotated program on
// the training input, have Cachier annotate it (with and without prefetch),
// and measure all variants on the test input.
//
// Independent stages run concurrently under the package worker pool: the two
// annotation passes (which only read the shared trace), then the four
// variant simulations. Each sim.Run builds its own machine, so results are
// identical to the sequential schedule.
func RunBenchmark(b *Benchmark) (*Row, error) {
	return runBenchmark(b, false, false)
}

// RunBenchmarkObserved is RunBenchmark with an obs.Recorder attached to
// every measured variant, filling Row.Snapshots (and Row.Recorders, with
// per-node timelines when timeline is set). Simulated results are
// bit-identical to RunBenchmark's — the recorder only observes — so the
// golden-stats tests use this entry point and still check Figure 6 cycles.
func RunBenchmarkObserved(b *Benchmark, timeline bool) (*Row, error) {
	return runBenchmark(b, true, timeline)
}

func runBenchmark(b *Benchmark, observe, timeline bool) (*Row, error) {
	cfg := machineConfig(b.Nodes)
	cfg.Protocol = b.Protocol

	// 1. Trace the unannotated program on the training input; both
	// annotation passes need it.
	trainSrc := b.Source(b.Train)
	traceCfg := cfg
	traceCfg.Mode = sim.ModeTrace
	trainProg, err := parc.Parse(trainSrc)
	if err != nil {
		return nil, fmt.Errorf("%s: parsing: %w", b.Name, err)
	}
	acquireWork()
	traceRes, err := sim.Run(trainProg, traceCfg)
	releaseWork()
	if err != nil {
		return nil, fmt.Errorf("%s: tracing: %w", b.Name, err)
	}

	// 2. Cachier annotates (Performance CICO, as in the evaluation), with
	// and without prefetch, concurrently; both passes only read trainProg.
	traces := []*trace.Trace{traceRes.Trace}
	var (
		annotated, annotatedPF *core.Result
		annErr, annPFErr       error
		wg                     sync.WaitGroup
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		acquireWork()
		defer releaseWork()
		opts := core.DefaultOptions()
		opts.CacheSize = cfg.CacheSize
		annotated, annErr = core.AnnotateMulti(trainProg, traces, opts)
	}()
	go func() {
		defer wg.Done()
		acquireWork()
		defer releaseWork()
		opts := core.DefaultOptions()
		opts.CacheSize = cfg.CacheSize
		opts.Prefetch = true
		annotatedPF, annPFErr = core.AnnotateMulti(trainProg, traces, opts)
	}()
	wg.Wait()
	if annErr != nil {
		return nil, fmt.Errorf("%s: annotating: %w", b.Name, annErr)
	}
	if annPFErr != nil {
		return nil, fmt.Errorf("%s: annotating with prefetch: %w", b.Name, annPFErr)
	}

	// 3. Measure every variant on the test input.
	cachierSrc, err := swapSeed(annotated.Source, b.Train.Seed, b.Test.Seed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	cachierPFSrc, err := swapSeed(annotatedPF.Source, b.Train.Seed, b.Test.Seed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	sources := map[Variant]string{
		VariantNone:            b.Source(b.Test),
		VariantHand:            b.Hand(b.Test),
		VariantCachier:         cachierSrc,
		VariantCachierPrefetch: cachierPFSrc,
	}
	row := &Row{
		Benchmark:       b.Name,
		Nodes:           b.Nodes,
		Cycles:          make(map[Variant]uint64),
		Stats:           make(map[Variant]coherence.Stats),
		Walls:           make(map[Variant]time.Duration),
		Engines:         make(map[Variant]string),
		AnnotatedSource: annotated.Source,
		Reports:         annotated.Reports,
	}
	row.countAccesses(traceRes)
	if observe {
		row.Snapshots = make(map[Variant]*obs.Snapshot)
		row.Recorders = make(map[Variant]*obs.Recorder)
	}
	variants := Variants()
	results := make([]*sim.Result, len(variants))
	recs := make([]*obs.Recorder, len(variants))
	errs := make([]error, len(variants))
	walls := make([]time.Duration, len(variants))
	for i, v := range variants {
		wg.Add(1)
		go func(i int, v Variant) {
			defer wg.Done()
			acquireWork()
			defer releaseWork()
			vcfg := cfg
			if observe {
				recs[i] = obs.New(cfg.Nodes, cfg.BlockSize)
				if timeline {
					recs[i].EnableTimeline()
				}
				vcfg.Recorder = recs[i]
			}
			start := time.Now()
			results[i], errs[i] = runVariant(sources[v], vcfg)
			walls[i] = time.Since(start)
		}(i, v)
	}
	wg.Wait()
	for i, v := range variants {
		if errs[i] != nil {
			return nil, fmt.Errorf("%s/%s: %w", b.Name, v, errs[i])
		}
		row.Protocol = results[i].Protocol
		row.Cycles[v] = results[i].Cycles
		row.Stats[v] = results[i].Stats
		row.Walls[v] = walls[i]
		row.Engines[v] = results[i].Engine
		row.countAccesses(results[i])
		if observe {
			row.Snapshots[v] = results[i].Snapshot
			row.Recorders[v] = recs[i]
		}
		if v == VariantNone {
			row.SharingLoads, row.SharingStores = results[i].SharingDegree()
		}
	}
	return row, nil
}

// Figure6 runs the whole suite. Benchmarks run concurrently under the
// package worker pool; rows keep the All() order and the first error in
// that order wins, so output is independent of goroutine scheduling.
func Figure6() ([]*Row, error) {
	return Figure6Protocol("")
}

// Figure6Protocol runs the whole suite under one coherence protocol spec
// ("" is Dir1SW); the protocol sweep (cmd/fig6 -protosweep) calls this once
// per spec.
func Figure6Protocol(spec string) ([]*Row, error) {
	bs := All()
	rows := make([]*Row, len(bs))
	errs := make([]error, len(bs))
	var wg sync.WaitGroup
	for i, b := range bs {
		wg.Add(1)
		go func(i int, b *Benchmark) {
			defer wg.Done()
			rows[i], errs[i] = RunBenchmark(b.WithProtocol(spec))
		}(i, b)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// SweepSpecs lists the protocol specs the cross-protocol sweep covers: the
// paper's Dir1SW plus the Agarwal-taxonomy hardware points DirnNB and DirnB
// at the default pointer count.
func SweepSpecs() []string {
	return []string{"dir1sw", "dirnnb:4", "dirnb:4"}
}

// FormatRows renders rows as the Figure 6 table: normalized execution time
// per variant (unannotated = 1.00).
func FormatRows(rows []*Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %6s | %8s %8s %8s %8s | %7s %7s\n",
		"benchmark", "nodes", "none", "hand", "cachier", "cach+pf", "shload", "shstore")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-16s %6d | %8.3f %8.3f %8.3f %8.3f | %6.1f%% %6.1f%%\n",
			r.Benchmark, r.Nodes,
			r.Normalized(VariantNone), r.Normalized(VariantHand),
			r.Normalized(VariantCachier), r.Normalized(VariantCachierPrefetch),
			100*r.SharingLoads, 100*r.SharingStores)
	}
	return sb.String()
}

// SortRowsBySharing orders rows by descending load-sharing degree, the
// ordering Section 6 uses to explain where CICO helps most.
func SortRowsBySharing(rows []*Row) {
	sort.Slice(rows, func(i, j int) bool {
		return rows[i].SharingLoads > rows[j].SharingLoads
	})
}
