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
//	-fullmap        full-map hardware directory instead of Dir1SW (ablation)
//	-protocol SPEC  coherence protocol: dir1sw (default), dirnnb[:n], dirnb[:n]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"cachier/internal/obs"
	"cachier/internal/parc"
	"cachier/internal/sim"
	"cachier/internal/trace"
)

func main() {
	var (
		nodes      = flag.Int("nodes", 32, "simulated processors")
		cacheSize  = flag.Int("cache", 256*1024, "per-node cache size in bytes")
		assoc      = flag.Int("assoc", 4, "cache associativity")
		block      = flag.Int("block", 32, "cache block size in bytes")
		traceFile  = flag.String("trace", "", "trace mode: write miss trace to this file")
		ignore     = flag.Bool("ignore-cico", false, "ignore CICO statements")
		noPrefetch = flag.Bool("no-prefetch", false, "ignore prefetch annotations")
		stats      = flag.Bool("stats", false, "print detailed protocol statistics")
		statsJSON  = flag.String("statsjson", "", "write the full stats snapshot as JSON to this file")
		timeline   = flag.String("timeline", "", "write a Chrome-trace/Perfetto timeline as JSON to this file")
		postStore  = flag.Bool("poststore", false, "KSR-1 post-store semantics for check-ins")
		fullMap    = flag.Bool("fullmap", false, "full-map hardware directory instead of Dir1SW")
		protocol   = flag.String("protocol", "", `coherence protocol spec: "dir1sw" (default), "dirnnb[:n]", or "dirnb[:n]"`)
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: wwt [flags] program.parc")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := parc.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Nodes = *nodes
	cfg.CacheSize = *cacheSize
	cfg.Assoc = *assoc
	cfg.BlockSize = *block
	cfg.IgnoreDirectives = *ignore
	cfg.DisablePrefetch = *noPrefetch
	cfg.PostStore = *postStore
	cfg.FullMap = *fullMap
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
		fatal(err)
	}
	for _, line := range res.Output {
		fmt.Println(line)
	}
	fmt.Printf("execution time: %d cycles on %d nodes (%d barriers, %s)\n",
		res.Cycles, *nodes, res.Barriers, res.Protocol)
	s := res.Stats
	fmt.Printf("misses: %d read, %d write, %d write faults; %d traps\n",
		s.ReadMisses, s.WriteMisses, s.WriteFaults, s.Traps)
	if *stats {
		snap := res.Snapshot
		p := &snap.Protocol
		fmt.Printf("engine: %s\n", res.Engine)
		fmt.Printf("accesses: %d reads, %d writes, %d hits\n", p.Reads, p.Writes, p.Hits)
		fmt.Printf("messages: %d requests, %d data, %d control (%d total)\n",
			p.ReqMsgs, p.DataMsgs, p.CtlMsgs, p.TotalMsgs())
		fmt.Printf("coherence: %d invalidations, %d writebacks\n", p.Invalidations, p.Writebacks)
		fmt.Printf("directives: %d co_x, %d co_s, %d ci, %d pf_x, %d pf_s (%d wasted)\n",
			p.CheckOutX, p.CheckOutS, p.CheckIns, p.PrefetchX, p.PrefetchS, p.WastedDirs)
		fmt.Printf("interp: %d ops, %d handoffs, %d work cycles\n",
			snap.Interp.Ops, snap.Interp.Handoffs, snap.Interp.WorkCycles)
		for _, tr := range snap.Directory.Transitions {
			fmt.Printf("  dir %-9s -> %-9s %d\n", tr.From, tr.To, tr.Count)
		}
		for _, tc := range snap.Directory.TrapCauses {
			fmt.Printf("  trap %-19s %d\n", tc.Cause, tc.Count)
		}
		loads, stores := res.SharingDegree()
		fmt.Printf("sharing degree: %.1f%% of loads, %.1f%% of stores\n", 100*loads, 100*stores)
		for _, vd := range snap.Vars {
			fmt.Printf("  %-12s co_x=%-8d co_s=%-8d ci=%-8d pf=%d\n",
				vd.Name, vd.CheckOutX, vd.CheckOutS, vd.CheckIns, vd.PrefetchX+vd.PrefetchS)
		}
	}
	if *statsJSON != "" {
		writeFile(*statsJSON, func(w *os.File) error { return res.Snapshot.WriteJSON(w) })
		fmt.Printf("stats snapshot: %s\n", *statsJSON)
	}
	if *timeline != "" {
		label := filepath.Base(flag.Arg(0))
		writeFile(*timeline, func(w *os.File) error {
			return cfg.Recorder.WriteTimeline(w, label)
		})
		fmt.Printf("timeline: %s\n", *timeline)
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fatal(err)
		}
		if err := trace.Write(f, res.Trace); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: %d epochs written to %s\n", len(res.Trace.Epochs), *traceFile)
	}
}

// writeFile creates path and streams write into it, failing the command on
// any error.
func writeFile(path string, write func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := write(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wwt:", err)
	os.Exit(1)
}
