// Command cachier automatically inserts CICO annotations into a ParC
// shared-memory program, reproducing the paper's tool: it combines the
// dynamic information in an execution trace (produced by wwt -trace on the
// same source) with static analysis of the program, writes the annotated
// program, and reports the data races and false sharing it found.
//
// Usage:
//
//	cachier [flags] program.parc
//
//	-trace FILE     execution trace of the unannotated program (required,
//	                unless -self traces internally)
//	-self           run the tracing simulation internally instead of
//	                reading a trace file
//	-o FILE         write the annotated program here (default stdout)
//	-style STYLE    "performance" (default) or "programmer" (Section 4.1)
//	-prefetch       also insert prefetch annotations
//	-cache BYTES    cache capacity assumed by placement (default 262144)
//	-nodes N        nodes of the -self, -static and -stats machine
//	                (default 32)
//	-stats FILE     simulate the annotated program and write its structured
//	                stats snapshot (internal/obs JSON) to FILE
//	-protocol SPEC  coherence protocol of the -self, -static and -stats
//	                machine: dir1sw (default), dirnnb[:n], dirnb[:n]; it
//	                shapes the trace, and annotation reads only the trace
//	-static         infer the trace statically (internal/staticanno) instead
//	                of simulating or reading one; no trace input needed
//
// staticdiff -nodes N program.parc runs both pipelines and diffs them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cachier/internal/core"
	"cachier/internal/obs"
	"cachier/internal/parc"
	"cachier/internal/sim"
	"cachier/internal/staticanno"
	"cachier/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "cachier:", err)
		}
		os.Exit(1)
	}
}

// run is the whole program behind an error seam, so golden tests drive it
// with in-memory writers exactly as main drives it with the real streams.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cachier", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		traceFile = fs.String("trace", "", "execution trace file(s) from wwt -trace, comma-separated for a training set")
		selfTrace = fs.Bool("self", false, "trace internally instead of reading a file")
		out       = fs.String("o", "", "output file (default stdout)")
		style     = fs.String("style", "performance", `"performance" or "programmer"`)
		prefetch  = fs.Bool("prefetch", false, "insert prefetch annotations")
		report    = fs.Bool("report", false, "print the CICO communication cost report")
		cache     = fs.Int("cache", 256*1024, "cache capacity for placement decisions")
		nodes     = fs.Int("nodes", 32, "nodes for -self tracing and -static inference")
		stats     = fs.String("stats", "", "simulate the annotated program and write its stats snapshot (JSON) to this file")
		protocol  = fs.String("protocol", "", `coherence protocol for -self/-static/-stats machines: "dir1sw" (default), "dirnnb[:n]", or "dirnb[:n]"`)
		static    = fs.Bool("static", false, "infer the trace statically instead of simulating or reading one")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: cachier [flags] program.parc")
		fs.Usage()
		return fmt.Errorf("expected one program, got %d arguments", fs.NArg())
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	prog, err := parc.Parse(string(src))
	if err != nil {
		return err
	}

	var traces []*trace.Trace
	switch {
	case *static:
		// Trace-free mode: synthesize the trace from the program alone.
		staticCfg := staticanno.DefaultConfig()
		staticCfg.Nodes, staticCfg.Protocol = *nodes, *protocol
		inf, err := staticanno.Infer(prog, staticCfg)
		if err != nil {
			return fmt.Errorf("static inference: %w", err)
		}
		reportInexact(stderr, inf)
		traces = []*trace.Trace{inf.Trace}
	case *selfTrace:
		cfg := sim.DefaultConfig()
		cfg.Nodes = *nodes
		cfg.Protocol = *protocol
		cfg.Mode = sim.ModeTrace
		res, err := sim.Run(prog, cfg)
		if err != nil {
			return fmt.Errorf("tracing: %w", err)
		}
		traces = []*trace.Trace{res.Trace}
	case *traceFile != "":
		// Comma-separated files form a training set (Section 4.5's
		// alternative to a single input data set).
		for _, name := range strings.Split(*traceFile, ",") {
			f, err := os.Open(name)
			if err != nil {
				return err
			}
			tr, err := trace.Read(f)
			if err != nil {
				f.Close()
				return err
			}
			f.Close()
			traces = append(traces, tr)
		}
	default:
		return fmt.Errorf("either -trace FILE[,FILE...], -self, or -static is required")
	}

	opts := core.DefaultOptions()
	opts.Prefetch = *prefetch
	opts.CacheSize = *cache
	switch *style {
	case "performance":
		opts.Style = core.StylePerformance
	case "programmer":
		opts.Style = core.StyleProgrammer
	default:
		return fmt.Errorf("unknown style %q", *style)
	}

	res, err := core.AnnotateMulti(prog, traces, opts)
	if err != nil {
		return err
	}
	if *out == "" {
		fmt.Fprint(stdout, res.Source)
	} else if err := os.WriteFile(*out, []byte(res.Source), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "cachier: inserted %d annotation statement(s) (%s CICO)\n",
		res.Annotations, opts.Style)
	for _, r := range res.Reports {
		loc := ""
		if r.Pos.IsValid() {
			loc = fmt.Sprintf(" at %s", r.Pos)
		}
		fmt.Fprintf(stderr, "cachier: %s on %s%s (first seen epoch %d, %d address(es))\n",
			r.Kind, r.Var, loc, r.Epoch, r.Addrs)
	}
	if *report {
		fmt.Fprint(stderr, res.Cost.String())
	}
	if *stats != "" {
		if err := writeStats(*stats, res.Source, *nodes, *cache, *protocol, stderr); err != nil {
			return err
		}
	}
	return nil
}

// reportInexact warns when static inference had to over-approximate, so the
// user knows the annotations cover a superset of any real execution.
func reportInexact(stderr io.Writer, inf *staticanno.Result) {
	if inf.Exact {
		return
	}
	fmt.Fprintln(stderr, "cachier: static inference is approximate; annotations cover a superset of the dynamic footprint:")
	for _, n := range inf.Notes {
		fmt.Fprintln(stderr, "cachier:   ", n)
	}
}

// writeStats parses the annotated program, simulates it on the selected
// coherence protocol (Dir1SW by default) with the observability recorder
// attached and writes the structured stats snapshot (internal/obs) — the
// same schema fig6 -statsjson and tracestat -json emit.
func writeStats(path, src string, nodes, cache int, protocol string, stderr io.Writer) error {
	prog, err := parc.Parse(src)
	if err != nil {
		return fmt.Errorf("parsing annotated program: %w", err)
	}
	cfg := sim.DefaultConfig()
	cfg.Nodes = nodes
	cfg.CacheSize = cache
	cfg.Protocol = protocol
	cfg.Recorder = obs.New(cfg.Nodes, cfg.BlockSize)
	res, err := sim.Run(prog, cfg)
	if err != nil {
		return fmt.Errorf("simulating annotated program: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.Snapshot.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "cachier: wrote stats snapshot %s (%d simulated cycles)\n", path, res.Cycles)
	return nil
}
