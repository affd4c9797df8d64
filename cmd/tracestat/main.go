// Command tracestat summarizes an execution trace produced by wwt -trace:
// per-epoch miss counts by kind, attribution of misses to the labelled
// shared regions (the paper's address-to-data-structure mapping), and the
// data races and false sharing Cachier's analysis finds in the trace.
//
// The trace is folded into the observability layer's stats tree
// (internal/obs), so the text report and the -json export use the same
// snapshot schema as fig6 -statsjson and wwt -statsjson.
//
// Usage:
//
//	tracestat [-races] [-vars] [-json FILE] trace-file
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"cachier/internal/core"
	"cachier/internal/obs"
	"cachier/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "tracestat:", err)
		}
		os.Exit(1)
	}
}

// run is the whole program behind an error seam, so golden tests drive it
// with in-memory writers exactly as main drives it with the real streams.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracestat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	races := fs.Bool("races", false, "list data races and false sharing per epoch")
	vars := fs.Bool("vars", false, "attribute misses to labelled regions")
	jsonOut := fs.String("json", "", "write the trace's stats snapshot (JSON) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: tracestat [flags] trace-file")
		fs.Usage()
		return fmt.Errorf("expected one trace file, got %d arguments", fs.NArg())
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	tr, err := trace.Read(f)
	f.Close()
	if err != nil {
		return err
	}

	snap := replayTrace(tr)
	if *jsonOut != "" {
		out, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		if err := snap.WriteJSON(out); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "trace: %d nodes, %d-byte blocks, %d epochs, %d labelled regions\n",
		tr.Nodes, tr.BlockSize, len(tr.Epochs), len(tr.Labels))

	labelOf := makeLabeler(tr.Labels)
	var totR, totW, totF uint64
	for _, ep := range snap.Epochs {
		var r, w, fl uint64
		for _, ne := range ep.Nodes {
			r += ne.ReadMisses
			w += ne.WriteMisses
			fl += ne.WriteFaults
		}
		totR, totW, totF = totR+r, totW+w, totF+fl
		fmt.Fprintf(stdout, "epoch %2d (barrier pc %4d): %6d read misses, %6d write misses, %6d write faults\n",
			ep.Index, barrierPCOf(tr, ep.Index), r, w, fl)
	}
	fmt.Fprintf(stdout, "total: %d read misses, %d write misses, %d write faults\n", totR, totW, totF)

	if *vars {
		counts := map[string]int{}
		for _, ep := range tr.Epochs {
			for _, m := range ep.Misses {
				counts[labelOf(m.Addr)]++
			}
		}
		names := make([]string, 0, len(counts))
		for n := range counts {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return counts[names[i]] > counts[names[j]] })
		fmt.Fprintln(stdout, "\nmisses by labelled region:")
		for _, n := range names {
			fmt.Fprintf(stdout, "  %-16s %d\n", n, counts[n])
		}
	}

	if *races {
		epochs := core.ProcessTrace(tr)
		conflicts := core.FindAllConflicts(epochs, tr.BlockSize)
		fmt.Fprintln(stdout, "\nconflicts (potential data races and false sharing):")
		any := false
		for i, c := range conflicts {
			byVar := map[string][2]int{}
			for _, a := range c.Race {
				v := byVar[labelOf(a)]
				v[0]++
				byVar[labelOf(a)] = v
			}
			for _, a := range c.FalseShare {
				v := byVar[labelOf(a)]
				v[1]++
				byVar[labelOf(a)] = v
			}
			names := make([]string, 0, len(byVar))
			for n := range byVar {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				v := byVar[n]
				any = true
				fmt.Fprintf(stdout, "  epoch %2d: %-16s %d raced address(es), %d falsely shared\n",
					i, n, v[0], v[1])
			}
		}
		if !any {
			fmt.Fprintln(stdout, "  none")
		}
	}
	return nil
}

// barrierPCOf preserves the trace's own barrier PC for the final epoch when
// it differs from the snapshot's convention (both use -1 for program end, so
// in practice they agree; the trace remains the source of truth).
func barrierPCOf(tr *trace.Trace, index int) int {
	if index >= 0 && index < len(tr.Epochs) {
		return tr.Epochs[index].BarrierPC
	}
	return -1
}

// replayTrace folds the trace into an observability recorder: each miss is
// an access, each epoch boundary a barrier whose per-node arrival times are
// the trace's virtual times. The resulting snapshot carries per-epoch,
// per-node miss and working-set detail plus barrier-imbalance stalls; the
// protocol block holds only what a trace records (misses — traced runs have
// no CICO directives or traps).
func replayTrace(tr *trace.Trace) *obs.Snapshot {
	rec := obs.New(tr.Nodes, tr.BlockSize)
	bs := uint64(tr.BlockSize)
	var kinds [trace.NumKinds]uint64
	var cycles uint64
	last := make([]uint64, tr.Nodes)
	for i, ep := range tr.Epochs {
		for _, m := range ep.Misses {
			kinds[m.Kind]++
			rec.Access(m.Node, m.Kind, m.Addr/bs, 0, false, 0)
		}
		var release uint64
		for _, vt := range ep.VT {
			if vt > release {
				release = vt
			}
		}
		if release > cycles {
			cycles = release
		}
		if i == len(tr.Epochs)-1 {
			copy(last, ep.VT)
			rec.Finish(ep.VT)
		} else {
			rec.BarrierEnd(ep.BarrierPC, ep.VT, release)
		}
	}
	barriers := len(tr.Epochs) - 1
	if len(tr.Epochs) == 0 {
		rec.Finish(last)
		barriers = 0
	}
	p := obs.ProtocolStats{
		Reads:       kinds[trace.ReadMiss],
		Writes:      kinds[trace.WriteMiss] + kinds[trace.WriteFault],
		ReadMisses:  kinds[trace.ReadMiss],
		WriteMisses: kinds[trace.WriteMiss],
		WriteFaults: kinds[trace.WriteFault],
	}
	return rec.Snapshot(cycles, last, barriers, p)
}

// makeLabeler maps addresses to region labels using the trace's labelling
// information (Section 4.3's labelling macro output).
func makeLabeler(labels []trace.Label) func(uint64) string {
	type span struct {
		name     string
		base, hi uint64
	}
	spans := make([]span, 0, len(labels))
	for _, l := range labels {
		elems := 1
		for _, d := range l.Dims {
			elems *= d
		}
		spans = append(spans, span{l.Name, l.Base, l.Base + uint64(elems*l.Elem)})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].base < spans[j].base })
	return func(addr uint64) string {
		i := sort.Search(len(spans), func(i int) bool { return spans[i].hi > addr })
		if i < len(spans) && addr >= spans[i].base {
			return spans[i].name
		}
		return "(unlabelled)"
	}
}
