package conformance

// Differential placement conformance for trace-free static annotation
// (internal/staticanno): on race-free, statically enumerable programs the
// synthetic trace must drive core.AnnotateMulti to the byte-identical output
// the simulated trace does, in every annotation style. Programs the inference
// over-approximates (or that genuinely race, where a simulated trace is one
// schedule's story) get the weaker covering guarantee instead: every miss
// the simulation recorded lies inside the static trace's footprint.

import (
	"fmt"

	"cachier/internal/parc"
	"cachier/internal/sim"
	"cachier/internal/staticanno"
	"cachier/internal/trace"
)

// staticConfig mirrors the harness's simulated machine for the static
// pipeline.
func staticConfig(nodes int) staticanno.Config {
	mc := simConfig(sim.ModeTrace)
	return staticanno.Config{
		Nodes:     nodes,
		CacheSize: mc.CacheSize,
		Assoc:     mc.Assoc,
		BlockSize: blockSize,
	}
}

// RunStaticPlacement checks the tentpole equivalence on one source text at
// the harness geometry: simulate a trace, infer one statically, annotate
// from both in all three styles, and demand byte-identical outputs when
// the inference is exact. Programs with genuinely data-dependent control
// (an rnd()-driven guard, say) widen; for those only the footprint
// covering guarantee is checked, since byte equality is not promised.
func RunStaticPlacement(src string) error {
	prog, err := parc.Parse(src)
	if err != nil {
		return fmt.Errorf("program invalid: %w", err)
	}
	traceRes, err := sim.Run(prog, simConfig(sim.ModeTrace))
	if err != nil {
		return fmt.Errorf("trace run: %w", err)
	}
	cfg := staticConfig(Nodes)
	diffs, inf, err := staticanno.Compare(prog, traceRes.Trace, cfg)
	if err != nil {
		return fmt.Errorf("static compare: %w", err)
	}
	if !inf.Exact {
		return StaticCoversResult(inf, traceRes.Trace)
	}
	for _, d := range diffs {
		if !d.Match {
			return fmt.Errorf("%s placement diverges (-trace-driven, +static):\n%s", d.Name, d.Diff)
		}
	}
	return nil
}

// StaticCoversResult is the weaker guarantee for programs static inference
// cannot pin exactly: every block a node missed on in the simulation must
// appear in the static trace's footprint for that node — the
// over-approximation may add blocks but never drop one a real execution
// touched. Blocks (not element addresses) are compared because a widened
// access can shift which element of a block is touched first, and they are
// compared per node over the whole run because a widened loop may merge epochs.
func StaticCoversResult(inf *staticanno.Result, tr *trace.Trace) error {
	bs := uint64(inf.Trace.BlockSize)
	static := make(map[int]map[uint64]bool)
	for _, e := range inf.Trace.Epochs {
		for _, m := range e.Misses {
			if static[m.Node] == nil {
				static[m.Node] = make(map[uint64]bool)
			}
			static[m.Node][m.Addr/bs] = true
		}
	}
	var missing int
	var first string
	for _, e := range tr.Epochs {
		for _, m := range e.Misses {
			if !static[m.Node][m.Addr/bs] {
				if missing == 0 {
					first = fmt.Sprintf("node %d addr %#x pc %d (%s)", m.Node, m.Addr, m.PC, m.Kind)
				}
				missing++
			}
		}
	}
	if missing > 0 {
		return fmt.Errorf("static footprint drops %d simulated miss block(s); first: %s", missing, first)
	}
	return nil
}
