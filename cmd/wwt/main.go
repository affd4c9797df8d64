// Command wwt runs a ParC program on the reproduction's Wisconsin Wind
// Tunnel equivalent: an execution-driven simulation of a Dir1SW
// shared-memory machine. In -trace mode it flushes the shared-data caches
// at every barrier and writes the miss trace Cachier consumes; otherwise it
// executes CICO annotations as memory-system directives and reports
// execution time and protocol statistics.
//
// Usage:
//
//	wwt [flags] program.parc
//
//	-nodes N        simulated processors (default 32)
//	-cache BYTES    per-node cache size (default 262144)
//	-assoc N        cache associativity (default 4)
//	-block BYTES    cache block size (default 32)
//	-trace FILE     trace mode: write the miss trace to FILE
//	-ignore-cico    ignore CICO statements (unannotated baseline)
//	-no-prefetch    ignore prefetch annotations only
//	-stats          print detailed protocol statistics
//	-statsjson FILE write the full stats snapshot as JSON
//	-timeline FILE  write a Chrome-trace/Perfetto timeline as JSON
//	-poststore      KSR-1 post-store semantics for check-ins (ablation)
//	-protocol SPEC  coherence protocol: dir1sw (default), dirnnb[:n], dirnb[:n];
//	                dirnnb:N on N nodes is the full-map hardware directory
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"cachier/internal/obs"
	"cachier/internal/parc"
	"cachier/internal/sim"
	"cachier/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "wwt:", err)
		}
		os.Exit(1)
	}
}

// run is the whole program behind an error seam, so tests drive it with
// in-memory writers exactly as main drives it with the real streams.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("wwt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		nodes      = fs.Int("nodes", 32, "simulated processors")
		cacheSize  = fs.Int("cache", 256*1024, "per-node cache size in bytes")
		assoc      = fs.Int("assoc", 4, "cache associativity")
		block      = fs.Int("block", 32, "cache block size in bytes")
		traceFile  = fs.String("trace", "", "trace mode: write miss trace to this file")
		ignore     = fs.Bool("ignore-cico", false, "ignore CICO statements")
		noPrefetch = fs.Bool("no-prefetch", false, "ignore prefetch annotations")
		stats      = fs.Bool("stats", false, "print detailed protocol statistics")
		statsJSON  = fs.String("statsjson", "", "write the full stats snapshot as JSON to this file")
		timeline   = fs.String("timeline", "", "write a Chrome-trace/Perfetto timeline as JSON to this file")
		postStore  = fs.Bool("poststore", false, "KSR-1 post-store semantics for check-ins")
		protocol   = fs.String("protocol", "", `coherence protocol spec: "dir1sw" (default), "dirnnb[:n]", or "dirnb[:n]"`)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: wwt [flags] program.parc")
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
	cfg := sim.DefaultConfig()
	cfg.Nodes = *nodes
	cfg.CacheSize = *cacheSize
	cfg.Assoc = *assoc
	cfg.BlockSize = *block
	cfg.IgnoreDirectives = *ignore
	cfg.DisablePrefetch = *noPrefetch
	cfg.PostStore = *postStore
	cfg.Protocol = *protocol
	if *traceFile != "" {
		cfg.Mode = sim.ModeTrace
	}
	if *stats || *statsJSON != "" || *timeline != "" {
		cfg.Recorder = obs.New(cfg.Nodes, cfg.BlockSize)
		if *timeline != "" {
			cfg.Recorder.EnableTimeline()
		}
	}
	res, err := sim.Run(prog, cfg)
	if err != nil {
		return err
	}
	for _, line := range res.Output {
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintf(stdout, "execution time: %d cycles on %d nodes (%d barriers, %s)\n",
		res.Cycles, *nodes, res.Barriers, res.Protocol)
	s := res.Stats
	fmt.Fprintf(stdout, "misses: %d read, %d write, %d write faults; %d traps\n",
		s.ReadMisses, s.WriteMisses, s.WriteFaults, s.Traps)
	if *stats {
		snap := res.Snapshot
		p := &snap.Protocol
		fmt.Fprintf(stdout, "engine: %s\n", res.Engine)
		fmt.Fprintf(stdout, "accesses: %d reads, %d writes, %d hits\n", p.Reads, p.Writes, p.Hits)
		fmt.Fprintf(stdout, "messages: %d requests, %d data, %d control (%d total)\n",
			p.ReqMsgs, p.DataMsgs, p.CtlMsgs, p.TotalMsgs())
		fmt.Fprintf(stdout, "coherence: %d invalidations, %d writebacks\n", p.Invalidations, p.Writebacks)
		fmt.Fprintf(stdout, "directives: %d co_x, %d co_s, %d ci, %d pf_x, %d pf_s (%d wasted)\n",
			p.CheckOutX, p.CheckOutS, p.CheckIns, p.PrefetchX, p.PrefetchS, p.WastedDirs)
		fmt.Fprintf(stdout, "interp: %d ops, %d handoffs, %d work cycles\n",
			snap.Interp.Ops, snap.Interp.Handoffs, snap.Interp.WorkCycles)
		for _, tr := range snap.Directory.Transitions {
			fmt.Fprintf(stdout, "  dir %-9s -> %-9s %d\n", tr.From, tr.To, tr.Count)
		}
		for _, tc := range snap.Directory.TrapCauses {
			fmt.Fprintf(stdout, "  trap %-19s %d\n", tc.Cause, tc.Count)
		}
		loads, stores := res.SharingDegree()
		fmt.Fprintf(stdout, "sharing degree: %.1f%% of loads, %.1f%% of stores\n", 100*loads, 100*stores)
		for _, vd := range snap.Vars {
			fmt.Fprintf(stdout, "  %-12s co_x=%-8d co_s=%-8d ci=%-8d pf=%d\n",
				vd.Name, vd.CheckOutX, vd.CheckOutS, vd.CheckIns, vd.PrefetchX+vd.PrefetchS)
		}
	}
	if *statsJSON != "" {
		if err := writeFile(*statsJSON, res.Snapshot.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "stats snapshot: %s\n", *statsJSON)
	}
	if *timeline != "" {
		label := filepath.Base(fs.Arg(0))
		if err := writeFile(*timeline, func(w io.Writer) error {
			return cfg.Recorder.WriteTimeline(w, label)
		}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "timeline: %s\n", *timeline)
	}
	if *traceFile != "" {
		if err := writeFile(*traceFile, func(w io.Writer) error { return trace.Write(w, res.Trace) }); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace: %d epochs written to %s\n", len(res.Trace.Epochs), *traceFile)
	}
	return nil
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
