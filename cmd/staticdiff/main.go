// Command staticdiff compares trace-driven and trace-free CICO annotation
// placement (the differential the paper's tool cannot run: it only had the
// trace). For each input program it simulates a miss trace, infers one
// statically (internal/staticanno), annotates from both in every style, and
// reports whether the outputs are byte-identical, whether the inference was
// exact, and how the miss-block footprints compare under the CICO cost
// model. It exits nonzero if any program violates its guarantee: an exact
// inference must place identically, and every inference — exact or widened
// — must cover the simulated footprint.
//
// Usage:
//
//	staticdiff [-nodes N] [-diverge-ok] [-v] file.parc ...
//	staticdiff -bench all|Name
//	staticdiff -fidelity
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cachier/internal/bench"
	"cachier/internal/parc"
	"cachier/internal/sim"
	"cachier/internal/staticanno"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("staticdiff", flag.ContinueOnError)
	nodes := fs.Int("nodes", 4, "simulated nodes for .parc file inputs")
	benchName := fs.String("bench", "", "diff a Figure 6 port (`all` for the suite) at its own geometry")
	fidelity := fs.Bool("fidelity", false, "run the bench static-fidelity harness (measured cycles, see EXPERIMENTS.md)")
	divergeOK := fs.Bool("diverge-ok", false, "allow exact-inference placement divergence (racy inputs, where a trace is one schedule's story)")
	verbose := fs.Bool("v", false, "print unified diffs for diverging styles")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *fidelity {
		rows, err := bench.StaticFidelity()
		if err != nil {
			fmt.Fprintln(os.Stderr, "staticdiff:", err)
			return 1
		}
		fmt.Fprint(out, bench.FormatStaticRows(rows))
		return 0
	}

	type job struct {
		name  string
		src   string
		nodes int
		racy  bool
	}
	var jobs []job
	if *benchName != "" {
		ports := bench.All()
		if *benchName != "all" {
			b, err := bench.ByName(*benchName)
			if err != nil {
				fmt.Fprintln(os.Stderr, "staticdiff:", err)
				return 2
			}
			ports = []*bench.Benchmark{b}
		}
		for _, b := range ports {
			jobs = append(jobs, job{name: b.Name, src: b.Source(b.Train), nodes: b.Nodes, racy: b.Racy})
		}
	}
	for _, path := range fs.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "staticdiff:", err)
			return 2
		}
		jobs = append(jobs, job{name: path, src: string(src), nodes: *nodes, racy: *divergeOK})
	}
	if len(jobs) == 0 {
		fmt.Fprintln(os.Stderr, "staticdiff: no inputs (give .parc files or -bench)")
		return 2
	}

	fmt.Fprintf(out, "%-34s %6s %6s %7s %7s | %7s %8s %8s\n",
		"program", "nodes", "exact", "styles", "covers", "blocks", "+static", "-static")
	bad := 0
	for _, j := range jobs {
		if err := diffOne(out, j.name, j.src, j.nodes, j.racy, *verbose); err != nil {
			fmt.Fprintf(os.Stderr, "staticdiff: %s: %v\n", j.name, err)
			bad++
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// diffOne runs the differential on one program and prints its row; the
// returned error reports a violated guarantee (or a pipeline failure).
func diffOne(out io.Writer, name, src string, nodes int, racy, verbose bool) error {
	prog, err := parc.Parse(src)
	if err != nil {
		return err
	}
	cfg := sim.DefaultConfig()
	cfg.Nodes = nodes
	cfg.SelfCheck = false
	c, err := staticanno.Compare(prog, cfg)
	if err != nil {
		return fmt.Errorf("static compare: %w", err)
	}
	inf := c.Inferred
	fmt.Fprintf(out, "%-34s %6d %6v %4d/%d %7v | %7d %8d %8d\n",
		name, nodes, inf.Exact, c.Matched, len(c.Styles), c.Covers == nil,
		c.Both, c.StaticOnly, c.TracedOnly)
	if verbose {
		for _, n := range inf.Notes {
			fmt.Fprintf(out, "  note: %s\n", n)
		}
		for _, d := range c.Styles {
			if !d.Match {
				fmt.Fprintf(out, "  %s (-trace-driven, +static):\n%s", d.Name, d.Diff)
			}
		}
	}
	if c.Covers != nil {
		return fmt.Errorf("covering violated: %w", c.Covers)
	}
	if inf.Exact && c.Matched != len(c.Styles) && !racy {
		return fmt.Errorf("exact inference but %d/%d styles diverge", c.Matched, len(c.Styles))
	}
	return nil
}
