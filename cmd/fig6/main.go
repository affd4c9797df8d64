// Command fig6 regenerates the paper's Figure 6: normalized execution times
// of the five benchmarks, comparing the unannotated, hand-annotated, and
// Cachier-annotated versions (with and without prefetch) on the simulated
// Dir1SW machine. Each benchmark is traced on its training input and
// measured on a different test input, as in Section 6.
//
// With -stats, -statsjson, or -timeline the benchmarks run with the
// observability recorder attached (internal/obs): -stats prints each
// variant's protocol summary from the structured snapshot, -statsjson
// writes the Cachier variant's full snapshot as JSON, and -timeline writes
// the Cachier variant's per-epoch Perfetto/Chrome trace (load it in
// https://ui.perfetto.dev). An attached recorder never changes simulated
// results — the golden-stats tests pin that.
//
// Usage:
//
//	fig6 [-bench NAME] [-sharing] [-stats] [-source] [-json FILE]
//	     [-big] [-paper] [-protocol SPEC] [-protosweep]
//	     [-statsjson FILE] [-timeline FILE]
//	     [-cpuprofile FILE] [-memprofile FILE]
//
// -json writes every measurement with the engine that produced it and its
// per-variant wall-clock. -big selects near-paper-scale inputs, -paper the
// paper-scale ones (Section 6's problem sizes; expect minutes per
// benchmark).
//
// -protocol SPEC simulates under a different coherence protocol ("dir1sw",
// "dirnnb[:n]", "dirnb[:n]"; see internal/coherence). -protosweep runs the
// suite once per protocol in the standard sweep (Dir1SW, Dir4NB, Dir4B) and
// prints the cross-protocol CICO-benefit table; with -json every row
// carries its protocol.
//
// On SIGINT/SIGTERM the run stops at the next suite boundary and -json
// still receives valid JSON: the rows measured so far plus a sentinel row
// {"benchmark": "__truncated__", "variant": "interrupted"} marking the
// truncation.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"cachier/internal/bench"
)

// jsonRow is one (benchmark, variant) measurement in the -json output.
// WallSecs is this variant's own sim.Run wall-clock on the host; Engine
// says which simulation engine produced it (sim.Result.Engine) and Interp
// which interpreter ran the program (the harness always uses the bytecode
// VM). BenchWallSecs is the benchmark's full pipeline wall (trace,
// annotate, simulate all variants), repeated on each of its rows;
// benchmarks run concurrently, so it measures time to produce the row, not
// exclusive CPU time. HostCPUs is the host's CPU count.
type jsonRow struct {
	Benchmark     string  `json:"benchmark"`
	Variant       string  `json:"variant"`
	Protocol      string  `json:"protocol"`
	Nodes         int     `json:"nodes"`
	Cycles        uint64  `json:"cycles"`
	Normalized    float64 `json:"normalized"`
	Engine        string  `json:"engine"`
	Interp        string  `json:"interp"`
	HostCPUs      int     `json:"host_cpus"`
	WallSecs      float64 `json:"wall_seconds"`
	BenchWallSecs float64 `json:"bench_wall_seconds"`
}

// truncatedRow is the sentinel appended to a partial -json output when the
// run is interrupted. It keeps the file a valid []jsonRow — consumers that
// key rows by (benchmark, variant) see it as a one-sided note, and its
// presence is the machine-readable truncation marker.
func truncatedRow() jsonRow {
	return jsonRow{Benchmark: "__truncated__", Variant: "interrupted", Interp: "vm", HostCPUs: runtime.NumCPU()}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	go func() {
		// After the first signal the run winds down at the next suite
		// boundary; restoring the default disposition here lets a second
		// ^C kill the process immediately instead of being swallowed.
		<-ctx.Done()
		stop()
	}()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "fig6:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fig6", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		only       = fs.String("bench", "", "run a single benchmark by name")
		sharing    = fs.Bool("sharing", false, "print the sharing-degree table (Section 6)")
		stats      = fs.Bool("stats", false, "print per-variant protocol statistics")
		source     = fs.Bool("source", false, "print each Cachier-annotated program")
		big        = fs.Bool("big", false, "near-paper-scale inputs (takes minutes)")
		paper      = fs.Bool("paper", false, "paper-scale inputs (Section 6 problem sizes; takes minutes per benchmark)")
		protocol   = fs.String("protocol", "", `coherence protocol spec: "dir1sw" (the default), "dirnnb[:n]", or "dirnb[:n]"`)
		protosweep = fs.Bool("protosweep", false, "run the suite once per protocol (dir1sw, dirnnb:4, dirnb:4) and print the cross-protocol table")
		jsonOut    = fs.String("json", "", "write machine-readable result rows to this file")
		statsJSON  = fs.String("statsjson", "", "write the Cachier variant's stats snapshot (JSON) to this file (per-benchmark suffix when running several)")
		timeline   = fs.String("timeline", "", "write the Cachier variant's Perfetto timeline (JSON) to this file (per-benchmark suffix when running several)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the benchmark runs to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile (taken after the runs) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *protosweep {
		if *statsJSON != "" || *timeline != "" {
			return fmt.Errorf("-protosweep cannot combine with -statsjson or -timeline")
		}
		if *protocol != "" {
			return fmt.Errorf("-protosweep runs its own protocol list; drop -protocol")
		}
	}

	// The recorder is attached only when an observability output was asked
	// for, so plain -json wall-clock rows keep measuring the bare simulator.
	observe := *stats || *statsJSON != "" || *timeline != ""

	var benches []*bench.Benchmark
	if *only != "" {
		b, err := bench.ByName(*only)
		if err != nil {
			return err
		}
		benches = []*bench.Benchmark{b}
	} else {
		benches = bench.All()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	for _, b := range benches {
		if *paper {
			b.UsePaper()
		} else if *big {
			b.UseBig()
		}
	}

	var jsonRows []jsonRow
	// interrupted flushes the rows measured so far (plus the truncation
	// sentinel) to -json and reports why the run stopped. Suite boundaries
	// call it so ^C during a long -paper or -protosweep run still leaves a
	// valid, marked JSON file behind.
	interrupted := func() error {
		if *jsonOut != "" {
			if werr := writeJSON(*jsonOut, append(jsonRows, truncatedRow())); werr != nil {
				return fmt.Errorf("interrupted, and writing truncated %s failed: %w", *jsonOut, werr)
			}
			return fmt.Errorf("interrupted; wrote truncated %s (%d rows + sentinel)", *jsonOut, len(jsonRows))
		}
		return fmt.Errorf("interrupted: %w", ctx.Err())
	}

	// runSuite measures every benchmark under one protocol. Benchmarks run
	// concurrently (RunBenchmark bounds actual compute to the machine's
	// CPUs); rows keep the listing order.
	runSuite := func(proto string) ([]*bench.Row, []time.Duration, error) {
		rows := make([]*bench.Row, len(benches))
		errs := make([]error, len(benches))
		walls := make([]time.Duration, len(benches))
		var wg sync.WaitGroup
		for i, b := range benches {
			b.Protocol = proto
			fmt.Fprintf(stderr, "running %s (%d nodes, protocol=%s)...\n", b.Name, b.Nodes, protoLabel(proto))
			wg.Add(1)
			go func(i int, b *bench.Benchmark) {
				defer wg.Done()
				start := time.Now()
				if observe {
					rows[i], errs[i] = bench.RunBenchmarkObserved(b, *timeline != "")
				} else {
					rows[i], errs[i] = bench.RunBenchmark(b)
				}
				walls[i] = time.Since(start)
			}(i, b)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, nil, err
			}
		}
		return rows, walls, nil
	}

	if ctx.Err() != nil {
		return interrupted()
	}
	rows, walls, err := runSuite(*protocol)
	if err != nil {
		return err
	}
	jsonRows = collectRows(rows, walls)
	// A signal that arrived while the suite was running is honoured here:
	// the rows measured so far are flushed with the truncation sentinel and
	// the exit is nonzero, instead of silently completing the run.
	if ctx.Err() != nil {
		return interrupted()
	}

	fmt.Fprintln(stdout, "Figure 6: execution time normalized to the unannotated version")
	fmt.Fprint(stdout, bench.FormatRows(rows))

	// Protocol sweep: re-run the whole suite under each remaining protocol
	// (the run above covered the sweep's first spec, Dir1SW) and print the
	// cross-protocol comparison. "benefit" is the Cachier variant's saving
	// over the same protocol's unannotated run — the paper's question
	// "how much of CICO's benefit survives more sharing pointers?".
	if *protosweep {
		allRows := [][]*bench.Row{rows}
		for _, spec := range bench.SweepSpecs()[1:] {
			if ctx.Err() != nil {
				return interrupted()
			}
			r2, w2, err := runSuite(spec)
			if err != nil {
				return err
			}
			jsonRows = append(jsonRows, collectRows(r2, w2)...)
			allRows = append(allRows, r2)
		}
		fmt.Fprintln(stdout, "\nProtocol sweep: unannotated vs Cachier cycles per protocol")
		fmt.Fprintf(stdout, "%-16s %-8s | %10s %10s %8s\n", "benchmark", "protocol", "none", "cachier", "benefit")
		for i := range rows {
			for _, rs := range allRows {
				r := rs[i]
				fmt.Fprintf(stdout, "%-16s %-8s | %10d %10d %7.1f%%\n",
					r.Benchmark, r.Protocol,
					r.Cycles[bench.VariantNone], r.Cycles[bench.VariantCachier],
					100*(1-r.Normalized(bench.VariantCachier)))
			}
		}
	}

	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, jsonRows); err != nil {
			return err
		}
	}

	if *sharing {
		fmt.Fprintln(stdout, "\nSharing degree of the unannotated runs (cf. Section 6):")
		for _, r := range rows {
			fmt.Fprintf(stdout, "  %-16s %5.1f%% shared loads, %5.1f%% shared stores\n",
				r.Benchmark, 100*r.SharingLoads, 100*r.SharingStores)
		}
	}
	if *stats {
		for _, r := range rows {
			fmt.Fprintf(stdout, "\n%s protocol statistics:\n", r.Benchmark)
			for _, v := range bench.Variants() {
				s := r.Snapshots[v]
				fmt.Fprintf(stdout, "  %-17s cycles=%-10d misses=%-7d faults=%-6d traps=%-6d msgs=%d epochs=%d\n",
					v, s.Cycles, s.Protocol.Misses(), s.Protocol.WriteFaults,
					s.Protocol.Traps, s.Protocol.TotalMsgs(), len(s.Epochs))
			}
			if len(r.Reports) > 0 {
				fmt.Fprintln(stdout, "  conflicts flagged by Cachier:")
				for _, rep := range r.Reports {
					fmt.Fprintf(stdout, "    %s on %s (epoch %d)\n", rep.Kind, rep.Var, rep.Epoch)
				}
			}
		}
	}
	if *statsJSON != "" {
		for _, r := range rows {
			path := perBenchPath(*statsJSON, r.Benchmark, len(rows))
			if err := writeTo(path, r.Snapshots[bench.VariantCachier].WriteJSON); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "fig6: wrote stats snapshot %s\n", path)
		}
	}
	if *timeline != "" {
		for _, r := range rows {
			path := perBenchPath(*timeline, r.Benchmark, len(rows))
			rec := r.Recorders[bench.VariantCachier]
			err := writeTo(path, func(w io.Writer) error {
				return rec.WriteTimeline(w, r.Benchmark)
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(stderr, "fig6: wrote timeline %s\n", path)
		}
	}
	if *source {
		for _, r := range rows {
			fmt.Fprintf(stdout, "\n===== %s, Cachier-annotated =====\n%s\n", r.Benchmark, r.AnnotatedSource)
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // flush garbage so the profile shows live data
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

// collectRows flattens one suite run into JSON rows, one per (benchmark,
// variant) in listing order.
func collectRows(rows []*bench.Row, walls []time.Duration) []jsonRow {
	var out []jsonRow
	for i, r := range rows {
		for _, v := range bench.Variants() {
			out = append(out, jsonRow{
				Benchmark:     r.Benchmark,
				Variant:       string(v),
				Protocol:      r.Protocol,
				Nodes:         r.Nodes,
				Cycles:        r.Cycles[v],
				Normalized:    r.Normalized(v),
				Engine:        r.Engines[v],
				Interp:        "vm",
				HostCPUs:      runtime.NumCPU(),
				WallSecs:      r.Walls[v].Seconds(),
				BenchWallSecs: walls[i].Seconds(),
			})
		}
	}
	return out
}

// writeJSON emits the collected measurement rows.
func writeJSON(path string, rows []jsonRow) error {
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// perBenchPath returns path unchanged when a single benchmark ran, or
// inserts the lower-case benchmark name before the extension when several
// did, so one -statsjson/-timeline flag fans out to one file per benchmark.
func perBenchPath(path, benchName string, n int) string {
	if n == 1 {
		return path
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + strings.ToLower(benchName) + ext
}

// writeTo creates path and streams fn's output into it.
func writeTo(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// protoLabel names a protocol spec for progress lines; "" is the default
// machine.
func protoLabel(spec string) string {
	if spec == "" {
		return "dir1sw"
	}
	return spec
}
