// Package staticanno infers CICO annotations without running the program.
//
// The trace-driven Cachier (internal/core) consumes a miss trace from a
// simulation of the unannotated program. This package synthesizes that
// trace statically: the vet abstract interpreter's inference mode
// (vet.Summarize) records each node's stream of scheduler-visible events —
// shared accesses, locks, prints, work, barriers — directly from the AST,
// and a coherent replay (replay.go) reads every stream through a
// vet.Cursor, one step and one array element at a time, on the
// simulator's own machine, scheduler and Dir1SW protocol (sim.Replay), so
// cross-node interference on falsely-shared blocks produces the same
// extra misses, kind flips, and write faults a simulated trace carries. The
// synthetic trace's PCs are the statement IDs of the program it was inferred
// from, so it feeds the unchanged core.AnnotateMulti on that same checked
// program, and every placement rule (hoisting, generated loops, pinned
// conflict annotations) behaves identically whether the trace came from a
// simulation or from this package.
//
// On programs the interpreter can enumerate exactly — concrete loop
// bounds, concrete guards, affine subscripts — the synthetic trace matches
// the simulator's and the annotated outputs match byte for byte (the
// conformance harness asserts this over the generated corpus). Where the
// program is input-dependent the summary widens, Result.Exact turns false,
// and the trace over-approximates the footprint; racy programs
// additionally diverge because a real trace observes one schedule's
// interference and the inferred streams are another's.
package staticanno

import (
	"errors"
	"fmt"
	"strings"

	"cachier/internal/core"
	"cachier/internal/parc"
	"cachier/internal/trace"
	"cachier/internal/vet"
)

// Config selects the modeled machine; it must match the machine the
// trace-driven pipeline would have simulated for the outputs to be
// comparable.
type Config struct {
	Nodes     int
	CacheSize int
	Assoc     int
	BlockSize int
}

// DefaultConfig mirrors sim.DefaultConfig's machine: 32 nodes with 256 KB
// 4-way caches of 32-byte blocks.
func DefaultConfig() Config {
	return Config{Nodes: 32, CacheSize: 256 * 1024, Assoc: 4, BlockSize: 32}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Nodes <= 0 {
		c.Nodes = d.Nodes
	}
	if c.CacheSize <= 0 {
		c.CacheSize = d.CacheSize
	}
	if c.Assoc <= 0 {
		c.Assoc = d.Assoc
	}
	if c.BlockSize <= 0 {
		c.BlockSize = d.BlockSize
	}
	return c
}

// Result is one inference run's output.
type Result struct {
	Trace *trace.Trace
	// Exact reports that the event streams are the VM's own, so the
	// coherent replay reconstructs the trace a simulation would record.
	// Inexact traces over-approximate the footprint.
	Exact bool
	Notes []string
}

// Infer synthesizes the miss trace of prog on the configured machine.
func Infer(prog *parc.Program, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	sum, err := vet.Summarize(prog, vet.InferOptions{Nprocs: cfg.Nodes})
	if err != nil {
		return nil, err
	}
	defer sum.Release()
	if err := sum.CheckBarrierStructure(); err != nil {
		return nil, fmt.Errorf("staticanno: %w", err)
	}
	res, err := replay(prog, cfg, sum)
	if err != nil {
		return nil, machineFault{err}
	}
	return &Result{Trace: res.Trace, Exact: sum.Exact, Notes: sum.Notes}, nil
}

// ErrMachineFault matches, under errors.Is, every error Infer's replay met
// on the machine: a deadlock, an unlock of a lock not held, a layout the
// machine cannot hold. Summarize has checked every element the replay
// reads, so the event source cannot fail and each replay error is the
// machine's. A simulation of the program meets the same fault, so it is
// the program's, where Infer's other errors are the inferrer refusing the
// program.
var ErrMachineFault = errors.New("staticanno: machine fault")

// machineFault wraps a replay error as an ErrMachineFault, keeping the
// machine's own message and error chain.
type machineFault struct{ err error }

func (f machineFault) Error() string   { return f.err.Error() }
func (f machineFault) Unwrap() []error { return []error{ErrMachineFault, f.err} }

// StyleDiff is one annotation style's static-vs-trace comparison.
type StyleDiff struct {
	Name   string // "performance", "performance+prefetch", "programmer"
	Opts   core.Options
	Match  bool
	Diff   string // unified line diff, empty when Match
	Static *core.Result
	Traced *core.Result
}

// Styles are the three pipeline variants the conformance harness measures.
func Styles() []StyleDiff {
	return []StyleDiff{
		{Name: "performance", Opts: core.Options{Style: core.StylePerformance}},
		{Name: "performance+prefetch", Opts: core.Options{Style: core.StylePerformance, Prefetch: true}},
		{Name: "programmer", Opts: core.Options{Style: core.StyleProgrammer}},
	}
}

// Compare annotates prog from the given simulation trace and from static
// inference, in every style, and diffs the outputs. The caller supplies the
// trace so it controls the traced machine; cfg must describe the same one.
// Both traces carry prog's own statement IDs, so every annotation reads the
// one checked program.
func Compare(prog *parc.Program, tr *trace.Trace, cfg Config) ([]StyleDiff, *Result, error) {
	inf, err := Infer(prog, cfg)
	if err != nil {
		return nil, nil, err
	}
	styles := Styles()
	for i := range styles {
		traced, err := core.AnnotateMulti(prog, []*trace.Trace{tr}, styles[i].Opts)
		if err != nil {
			return nil, inf, fmt.Errorf("staticanno: traced %s annotate: %w", styles[i].Name, err)
		}
		static, err := core.AnnotateMulti(prog, []*trace.Trace{inf.Trace}, styles[i].Opts)
		if err != nil {
			return nil, inf, fmt.Errorf("staticanno: static %s annotate: %w", styles[i].Name, err)
		}
		styles[i].Traced, styles[i].Static = traced, static
		styles[i].Match = traced.Source == static.Source
		if !styles[i].Match {
			styles[i].Diff = DiffLines(traced.Source, static.Source)
		}
	}
	return styles, inf, nil
}

// DiffLines renders a minimal unified diff of two texts ("-" lines from a,
// "+" lines from b), with unchanged lines elided. Good enough for placement
// divergence reports; not a general diff tool.
func DiffLines(a, b string) string {
	al := strings.Split(strings.TrimRight(a, "\n"), "\n")
	bl := strings.Split(strings.TrimRight(b, "\n"), "\n")
	// LCS table; the annotated programs are small.
	n, m := len(al), len(bl)
	lcs := make([][]int, n+1)
	for i := range lcs {
		lcs[i] = make([]int, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if al[i] == bl[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else if lcs[i+1][j] >= lcs[i][j+1] {
				lcs[i][j] = lcs[i+1][j]
			} else {
				lcs[i][j] = lcs[i][j+1]
			}
		}
	}
	var out strings.Builder
	i, j := 0, 0
	for i < n && j < m {
		switch {
		case al[i] == bl[j]:
			i++
			j++
		case lcs[i+1][j] >= lcs[i][j+1]:
			fmt.Fprintf(&out, "-%4d %s\n", i+1, al[i])
			i++
		default:
			fmt.Fprintf(&out, "+%4d %s\n", j+1, bl[j])
			j++
		}
	}
	for ; i < n; i++ {
		fmt.Fprintf(&out, "-%4d %s\n", i+1, al[i])
	}
	for ; j < m; j++ {
		fmt.Fprintf(&out, "+%4d %s\n", j+1, bl[j])
	}
	return out.String()
}
