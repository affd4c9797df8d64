// Package staticanno infers CICO annotations without running the program.
//
// The trace-driven Cachier (internal/core) consumes a miss trace from a
// simulation of the unannotated program. This package synthesizes that
// trace statically: the vet abstract interpreter's inference mode
// (vet.Summarize) records each node's stream of scheduler-visible events —
// shared accesses, locks, prints, work, barriers — directly from the AST.
// Each node's vet.Cursor is its sim.EventSource: it hands out those events
// as sim.Events, one array element at a time, and sim.Replay runs them on
// the simulator's own machine, scheduler and coherence protocol in trace
// mode.
// An isolated per-node cache replay would be blind to cross-node
// interference on falsely-shared blocks; on the coherent machine that
// interference produces the same extra misses, kind flips, and write
// faults a simulated trace carries, and the paper's trace-driven Cachier
// pins annotations at those boundaries. Local work is in the streams too,
// charged and flushed with the interpreter's own constants, so an exact
// inference replays the simulated schedule cycle for cycle. The synthetic
// trace's PCs are the statement IDs of the program it was inferred from, so
// it feeds the unchanged core.AnnotateMulti on that same checked program,
// and every placement rule (hoisting, generated loops, pinned conflict
// annotations) behaves identically whether the trace came from a
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

	"cachier/internal/cico"
	"cachier/internal/core"
	"cachier/internal/parc"
	"cachier/internal/sim"
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
	Protocol  string // sim.Config.Protocol's spec; "" is Dir1SW
}

// DefaultConfig is sim.DefaultConfig's machine.
func DefaultConfig() Config {
	m := sim.DefaultConfig()
	return Config{Nodes: m.Nodes, CacheSize: m.CacheSize, Assoc: m.Assoc, BlockSize: m.BlockSize}
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

// Infer synthesizes the miss trace of prog on the configured machine: the
// trace of a trace-mode replay of every node's inferred stream.
func Infer(prog *parc.Program, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	sum, err := vet.Summarize(prog, vet.Options{Nprocs: cfg.Nodes})
	if err != nil {
		return nil, err
	}
	defer sum.Release()
	if err := sum.CheckBarrierStructure(); err != nil {
		return nil, fmt.Errorf("staticanno: %w", err)
	}
	mc := sim.DefaultConfig()
	mc.Nodes, mc.CacheSize, mc.Assoc, mc.BlockSize = cfg.Nodes, cfg.CacheSize, cfg.Assoc, cfg.BlockSize
	mc.Protocol = cfg.Protocol
	mc.Mode = sim.ModeTrace
	cursors := make([]vet.Cursor, cfg.Nodes)
	sources := make([]sim.EventSource, cfg.Nodes)
	for i := range cursors {
		cursors[i] = sum.Cursor(i)
		sources[i] = &cursors[i]
	}
	res, err := sim.Replay(prog, mc, sources)
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

// Comparison is the static differential of one program on one machine:
// the trace-driven and the trace-free placement in every style, and how the
// two traces' miss-block footprints relate.
type Comparison struct {
	Inferred *Result     // the static inference
	Styles   []StyleDiff // Styles(), each with both placements
	Matched  int         // styles whose two placements are byte-identical
	// Covers is the guarantee every inference keeps, exact or widened: nil
	// when every block a node missed on in the simulation is in the static
	// trace's footprint for that node. The over-approximation may add blocks
	// but never drop one a real execution touched. Blocks (not element
	// addresses) are compared because a widened access can shift which
	// element of a block is touched first, and they are compared per node
	// over the whole run because a widened loop may merge epochs.
	Covers error
	// Both, StaticOnly and TracedOnly pool the miss-block footprints over
	// all nodes (cico.FootprintOverlap): StaticOnly prices the
	// over-approximation's extra check-outs, and TracedOnly is zero
	// whenever Covers holds, which pools per node and so is the stricter
	// test.
	Both, StaticOnly, TracedOnly uint64
}

// Compare runs the static differential of prog on the machine mc: a
// trace-mode simulation, an inference on the same geometry and protocol,
// and both annotations in every style. Both traces carry prog's own
// statement IDs, so every annotation reads the one checked program.
func Compare(prog *parc.Program, mc sim.Config) (*Comparison, error) {
	mc.Mode = sim.ModeTrace
	run, err := sim.Run(prog, mc)
	if err != nil {
		return nil, fmt.Errorf("staticanno: trace run: %w", err)
	}
	inf, err := Infer(prog, Config{
		Nodes: mc.Nodes, CacheSize: mc.CacheSize, Assoc: mc.Assoc,
		BlockSize: mc.BlockSize, Protocol: mc.Protocol,
	})
	if err != nil {
		return nil, err
	}
	c := &Comparison{Inferred: inf, Styles: Styles()}
	for i := range c.Styles {
		d := &c.Styles[i]
		if d.Traced, err = core.AnnotateMulti(prog, []*trace.Trace{run.Trace}, d.Opts); err != nil {
			return nil, fmt.Errorf("staticanno: traced %s annotate: %w", d.Name, err)
		}
		if d.Static, err = core.AnnotateMulti(prog, []*trace.Trace{inf.Trace}, d.Opts); err != nil {
			return nil, fmt.Errorf("staticanno: static %s annotate: %w", d.Name, err)
		}
		if d.Match = d.Traced.Source == d.Static.Source; d.Match {
			c.Matched++
		} else {
			d.Diff = DiffLines(d.Traced.Source, d.Static.Source)
		}
	}
	c.compareFootprints(run.Trace)
	return c, nil
}

// compareFootprints sets Covers and the pooled overlap in one pass over
// each trace.
func (c *Comparison) compareFootprints(tr *trace.Trace) {
	type nodeBlock struct {
		node int
		blk  uint64
	}
	bs := uint64(c.Inferred.Trace.BlockSize)
	perNode := make(map[nodeBlock]bool)
	static, traced := make(map[uint64]bool), make(map[uint64]bool)
	for _, e := range c.Inferred.Trace.Epochs {
		for _, m := range e.Misses {
			perNode[nodeBlock{m.Node, m.Addr / bs}] = true
			static[m.Addr/bs] = true
		}
	}
	var missing int
	var first string
	for _, e := range tr.Epochs {
		for _, m := range e.Misses {
			traced[m.Addr/bs] = true
			if !perNode[nodeBlock{m.Node, m.Addr / bs}] {
				if missing == 0 {
					first = fmt.Sprintf("node %d addr %#x pc %d (%s)", m.Node, m.Addr, m.PC, m.Kind)
				}
				missing++
			}
		}
	}
	if missing > 0 {
		c.Covers = fmt.Errorf("static footprint drops %d simulated miss block(s); first: %s", missing, first)
	}
	c.Both, c.StaticOnly, c.TracedOnly = cico.FootprintOverlap(static, traced)
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
