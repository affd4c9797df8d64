package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"cachier/internal/bench"
	"cachier/internal/core"
	"cachier/internal/parc"
	"cachier/internal/sim"
	"cachier/internal/trace"
)

// fig6Expected is the frozen Figure 6: simulated cycles per (benchmark,
// variant), copied from BENCH_baseline.json. Every engine and every run
// must reproduce it exactly.
//
//go:embed expected/fig6_cycles.json
var fig6ExpectedJSON []byte

func loadFig6Expected() (map[string]map[string]uint64, error) {
	var expected map[string]map[string]uint64
	if err := json.Unmarshal(fig6ExpectedJSON, &expected); err != nil {
		return nil, fmt.Errorf("expected/fig6_cycles.json: %w", err)
	}
	return expected, nil
}

// fig6Workload regenerates Figure 6; one regeneration is one op.
type fig6Workload struct {
	// regenerate is bench.Figure6, with whatever engine and protocol the
	// repo defaults to, and ports are the programs it runs, for the traced
	// pass to take stage by stage. Tests substitute one small port.
	regenerate  func() ([]*bench.Row, error)
	ports       []*bench.Benchmark
	opsPerRound int

	expected map[string]map[string]uint64
	lat      []time.Duration
}

func newFig6Workload() *fig6Workload {
	return &fig6Workload{regenerate: bench.Figure6, ports: bench.All(), opsPerRound: 4}
}

func (w *fig6Workload) info() (name, why string, opsPerRound, clients int) {
	return "fig6", "the paper's headline path: 25 simulations of 16- and 32-node machines, ~100 ms each, so sim, interp and coherence do ~80% of the work and core ~18%",
		w.opsPerRound, 1
}

// setup loads the expected cycles and makes one warm-up regeneration.
func (w *fig6Workload) setup() error {
	expected, err := loadFig6Expected()
	if err != nil {
		return err
	}
	w.expected = expected
	w.lat = make([]time.Duration, w.opsPerRound)
	if !w.op() {
		return fmt.Errorf("fig6: warm-up regeneration does not match expected/fig6_cycles.json")
	}
	return nil
}

// op regenerates the figure once and reports whether every cell matches.
func (w *fig6Workload) op() bool {
	rows, err := w.regenerate()
	if err != nil || len(rows) != len(w.ports) {
		return false
	}
	for _, row := range rows {
		for _, v := range bench.Variants() {
			if want, ok := w.expected[row.Benchmark][string(v)]; !ok || row.Cycles[v] != want {
				return false
			}
		}
	}
	return true
}

func (w *fig6Workload) round() roundStats {
	failed := 0
	rs := timed(w.lat, func() {
		for i := range w.lat {
			t0 := time.Now()
			ok := w.op()
			w.lat[i] = time.Since(t0)
			if !ok {
				failed++
			}
		}
	})
	rs.failed = failed
	return rs
}

// verify has nothing left to do: every op is checked as it completes.
func (w *fig6Workload) verify() int { return 0 }

func (w *fig6Workload) tracePass(rec *spanRecorder) (passStats, error) {
	st, err := fig6Staged(w.ports, w.expected, rec)
	if err != nil {
		return passStats{}, err
	}
	if st.mismatched > 0 {
		return passStats{}, fmt.Errorf("fig6: %d cells of the staged pass differ from expected/fig6_cycles.json", st.mismatched)
	}
	return passStats{ops: 1}, nil
}

// layerTimes reads the split straight off the spans: every stage of the
// staged pass is a call into one layer.
func (w *fig6Workload) layerTimes(spans []span, _ passStats, _ *probeResult) (map[string]float64, float64) {
	self, opTime := layerSelfTimes(spans)
	byLayer := make(map[string]float64, len(self))
	for layer, ns := range self {
		byLayer[layer] = float64(ns)
	}
	return byLayer, float64(opTime)
}

// stagedResult is one regeneration of Figure 6 taken stage by stage on one
// goroutine.
type stagedResult struct {
	parse       time.Duration // all parc.Parse calls
	traceRun    time.Duration // the 5 training runs in trace mode
	annotate    time.Duration // the 10 core.Annotate calls
	measure     time.Duration // the 20 measured runs
	sourceBytes int           // bytes parsed
	cycles      uint64        // simulated cycles, summed over the 20 cells
	accesses    uint64        // shared reads+writes simulated, all 25 runs
	records     uint64        // miss records in the 5 training traces
	directives  uint64        // statements core.Annotate inserted, 10 calls
	mismatched  int           // cells whose cycles differ from the expected
	traces      []*trace.Trace
}

// fig6Machine is bench.RunBenchmark's machine for a port: the paper's
// caches on the port's node count, with the per-barrier self-check off as
// in every measured build.
func fig6Machine(b *bench.Benchmark) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Nodes = b.Nodes
	cfg.SelfCheck = false
	cfg.Parallel = b.Parallel
	cfg.Lanes = b.Lanes
	cfg.Protocol = b.Protocol
	return cfg
}

// swapSeed turns a program annotated on the training input into the same
// program on the test input, as bench.RunBenchmark does.
func swapSeed(src string, train, test int64) (string, error) {
	from := fmt.Sprintf("const SEED = %d;", train)
	if !strings.Contains(src, from) {
		return "", fmt.Errorf("training seed constant %q not found", from)
	}
	return strings.Replace(src, from, fmt.Sprintf("const SEED = %d;", test), 1), nil
}

// fig6Staged re-executes bench.RunBenchmark's stages by hand for every
// port: parse, trace run, annotate with and without prefetch, and the four
// measured runs. It is the only way to time the stages from outside.
func fig6Staged(ports []*bench.Benchmark, expected map[string]map[string]uint64, rec *spanRecorder) (stagedResult, error) {
	var st stagedResult
	root := rec.begin("benchmark.fig6", -1, 0)

	// stage times one call into a layer, under the port's span.
	stage := func(name string, parent int, into *time.Duration, fn func() error) error {
		id := rec.begin(name, parent, 0)
		t0 := time.Now()
		err := fn()
		*into += time.Since(t0)
		rec.end(id)
		return err
	}
	simulate := func(b *bench.Benchmark, src string, cfg sim.Config, runName string, runTime *time.Duration, port int) (*sim.Result, error) {
		var (
			prog *parc.Program
			res  *sim.Result
		)
		st.sourceBytes += len(src)
		if err := stage("parc.parse", port, &st.parse, func() (err error) {
			prog, err = parc.Parse(src)
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s: parsing: %w", b.Name, err)
		}
		if err := stage(runName, port, runTime, func() (err error) {
			res, err = sim.Run(prog, cfg)
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", b.Name, runName, err)
		}
		for i := range res.SharedReads {
			st.accesses += res.SharedReads[i] + res.SharedWrites[i]
		}
		return res, nil
	}

	for _, b := range ports {
		port := rec.begin("benchmark.port", root, 0)
		cfg := fig6Machine(b)
		traceCfg := cfg
		traceCfg.Mode = sim.ModeTrace
		trainSrc := b.Source(b.Train)
		traced, err := simulate(b, trainSrc, traceCfg, "sim.run_trace", &st.traceRun, port)
		if err != nil {
			return st, err
		}
		st.traces = append(st.traces, traced.Trace)
		for _, e := range traced.Trace.Epochs {
			st.records += uint64(len(e.Misses))
		}

		sources := map[bench.Variant]string{
			bench.VariantNone: b.Source(b.Test),
			bench.VariantHand: b.Hand(b.Test),
		}
		for _, a := range []struct {
			variant  bench.Variant
			prefetch bool
		}{{bench.VariantCachier, false}, {bench.VariantCachierPrefetch, true}} {
			opts := core.DefaultOptions()
			opts.CacheSize = cfg.CacheSize
			opts.Prefetch = a.prefetch
			var res *core.Result
			if err := stage("core.annotate", port, &st.annotate, func() (err error) {
				res, err = core.Annotate(trainSrc, traced.Trace, opts)
				return err
			}); err != nil {
				return st, fmt.Errorf("%s: annotating: %w", b.Name, err)
			}
			st.directives += uint64(res.Annotations)
			if sources[a.variant], err = swapSeed(res.Source, b.Train.Seed, b.Test.Seed); err != nil {
				return st, fmt.Errorf("%s: %w", b.Name, err)
			}
		}

		for _, v := range bench.Variants() {
			res, err := simulate(b, sources[v], cfg, "sim.run_measure", &st.measure, port)
			if err != nil {
				return st, err
			}
			st.cycles += res.Cycles
			if want, ok := expected[b.Name][string(v)]; !ok || res.Cycles != want {
				st.mismatched++
			}
		}
		rec.end(port)
	}
	rec.end(root)
	return st, nil
}
