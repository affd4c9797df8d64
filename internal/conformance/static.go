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
)

// RunStaticPlacement checks the tentpole equivalence on one source text at
// the harness geometry under protocol ("" is Dir1SW): staticanno.Compare
// simulates a trace, infers one on the same machine, and annotates from
// both in all three styles; an exact inference must place byte-identically.
// Programs with genuinely data-dependent control (an rnd()-driven guard,
// say) widen; for those only the footprint covering guarantee is checked,
// since byte equality is not promised.
func RunStaticPlacement(src, protocol string) error {
	prog, err := parc.Parse(src)
	if err != nil {
		return fmt.Errorf("program invalid: %w", err)
	}
	mc := simConfig(sim.ModeTrace)
	mc.Protocol = protocol
	c, err := staticanno.Compare(prog, mc)
	if err != nil {
		return fmt.Errorf("static compare: %w", err)
	}
	if !c.Inferred.Exact {
		return c.Covers
	}
	for _, d := range c.Styles {
		if !d.Match {
			return fmt.Errorf("%s placement diverges (-trace-driven, +static):\n%s", d.Name, d.Diff)
		}
	}
	return nil
}
