package bench

// Static-annotation fidelity: how close trace-free inference
// (internal/staticanno) comes to the trace-driven pipeline on the Figure 6
// ports, measured where it matters — simulated execution time of the
// annotated program on the test input. For benchmarks the inference pins
// exactly the annotated sources are byte-identical and the cycle counts
// match trivially; for the inexact ones the gap quantifies what the
// over-approximated footprint costs.

import (
	"fmt"
	"strings"
	"sync"

	"cachier/internal/core"
	"cachier/internal/parc"
	"cachier/internal/staticanno"
)

// StaticRow is one benchmark's static-vs-trace fidelity measurement.
type StaticRow struct {
	Benchmark string
	Nodes     int
	// Exact reports the inference folded every branch, bound, and subscript
	// to per-node constants (see staticanno.Result).
	Exact bool
	// StylesMatched counts annotation styles (of StylesTotal) whose static
	// and trace-driven outputs are byte-identical.
	StylesMatched, StylesTotal int
	// CyclesTrace and CyclesStatic are the simulated execution times of the
	// trace-annotated and statically annotated programs on the test input,
	// under the benchmark's machine (the Figure 6 measurement).
	CyclesTrace, CyclesStatic uint64
	// Notes are the inference's reasons for being inexact, if any.
	Notes []string
}

// Gap is the static variant's execution time relative to the trace-driven
// one; 1.0 means the trace-free pipeline lost nothing.
func (r *StaticRow) Gap() float64 {
	if r.CyclesTrace == 0 {
		return 0
	}
	return float64(r.CyclesStatic) / float64(r.CyclesTrace)
}

// RunStaticFidelity compares b's trace-driven and static annotation on the
// training input (staticanno.Compare on the benchmark's machine) and
// measures both Performance-CICO programs on the test input.
func RunStaticFidelity(b *Benchmark) (*StaticRow, error) {
	cfg := machineConfig(b.Nodes)
	trainProg, err := parc.Parse(b.Source(b.Train))
	if err != nil {
		return nil, fmt.Errorf("%s: parsing: %w", b.Name, err)
	}
	acquireWork()
	c, err := staticanno.Compare(trainProg, cfg)
	releaseWork()
	if err != nil {
		return nil, fmt.Errorf("%s: static compare: %w", b.Name, err)
	}
	row := &StaticRow{
		Benchmark: b.Name, Nodes: b.Nodes, Exact: c.Inferred.Exact,
		StylesMatched: c.Matched, StylesTotal: len(c.Styles), Notes: c.Inferred.Notes,
	}

	// Measure Compare's first pair, Performance CICO (RunBenchmark's Cachier
	// variant; its default cache size is the machine's), on the test input.
	perf := c.Styles[0]
	for _, m := range []struct {
		cycles *uint64
		res    *core.Result
	}{{&row.CyclesTrace, perf.Traced}, {&row.CyclesStatic, perf.Static}} {
		src, err := swapSeed(m.res.Source, b.Train.Seed, b.Test.Seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		acquireWork()
		simRes, err := runVariant(src, cfg)
		releaseWork()
		if err != nil {
			return nil, fmt.Errorf("%s: measuring: %w", b.Name, err)
		}
		*m.cycles = simRes.Cycles
	}
	return row, nil
}

// StaticFidelity runs the whole suite, rows in All() order.
func StaticFidelity() ([]*StaticRow, error) {
	bs := All()
	rows := make([]*StaticRow, len(bs))
	errs := make([]error, len(bs))
	var wg sync.WaitGroup
	for i, b := range bs {
		wg.Add(1)
		go func(i int, b *Benchmark) {
			defer wg.Done()
			rows[i], errs[i] = RunStaticFidelity(b)
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

// FormatStaticRows renders the static-fidelity table (EXPERIMENTS.md,
// "Static annotation fidelity").
func FormatStaticRows(rows []*StaticRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %6s %6s %7s | %12s %12s %6s\n",
		"benchmark", "nodes", "exact", "styles", "trace-cyc", "static-cyc", "gap")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-16s %6d %6v %4d/%d | %12d %12d %6.3f\n",
			r.Benchmark, r.Nodes, r.Exact, r.StylesMatched, r.StylesTotal,
			r.CyclesTrace, r.CyclesStatic, r.Gap())
	}
	return sb.String()
}
