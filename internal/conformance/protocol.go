package conformance

import (
	"fmt"
	"slices"

	"cachier/internal/oracle"
	"cachier/internal/parc"
	"cachier/internal/parcgen"
	"cachier/internal/sim"
)

// ProtocolSpecs lists the coherence protocols the cross-protocol
// differential covers: the paper's Dir1SW, the degenerate single-pointer
// DirnNB (maximum overflow pressure), the sweep's Dir4NB, and Dir4B with
// its broadcast bit. Every spec must produce oracle-identical memory,
// output, and barrier counts on every corpus program — the protocols may
// only disagree about time.
func ProtocolSpecs() []string {
	return []string{"dir1sw", "dirnnb:1", "dirnnb:4", "dirnb:4"}
}

// RunProtocolEquivalence is the cross-protocol differential: the seed's
// program, plain and Cachier-annotated, runs under every ProtocolSpecs()
// entry with the per-access protocol probe enabled (pointer-count bounds
// for DirnNB, broadcast-bit consistency for DirnB, via Protocol.CheckEntry).
// Each run must match the sequential oracle (memory bit-for-bit, output as
// a multiset, barrier count), and across protocols the program-determined
// quantities — accesses, directives, barriers, final memory, output
// content — must be identical; only costs and coherence traffic may differ.
// The hardware protocols must additionally never trap.
func RunProtocolEquivalence(seed int64) error {
	src := parcgen.Generate(seed)
	prog, err := parc.Parse(src)
	if err != nil {
		return fmt.Errorf("generated program invalid: %w", err)
	}
	want, err := oracle.Run(prog, oracle.Config{Nprocs: Nodes, BlockSize: blockSize})
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	annProg, _, err := annotatedForm(prog)
	if err != nil {
		return err
	}
	sources := []struct {
		name string
		prog *parc.Program
	}{
		{"plain", prog},
		{"annotated", annProg},
	}
	for _, pv := range sources {
		var base *sim.Result
		var baseSpec string
		for _, spec := range ProtocolSpecs() {
			name := pv.name + "/" + spec
			cfg := simConfig(sim.ModePerf) // probe + self-check on
			cfg.Protocol = spec
			r, err := sim.Run(pv.prog, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if err := checkVariant(name, r, want); err != nil {
				return err
			}
			if spec != "dir1sw" && r.Stats.Traps != 0 {
				return fmt.Errorf("%s: %d traps — %s is all-hardware and must never trap",
					name, r.Stats.Traps, r.Protocol)
			}
			if base == nil {
				base, baseSpec = r, spec
				continue
			}
			if r.Barriers != base.Barriers {
				return fmt.Errorf("%s: %d barriers, %s saw %d", name, r.Barriers, baseSpec, base.Barriers)
			}
			if r.Stats.Reads != base.Stats.Reads || r.Stats.Writes != base.Stats.Writes {
				return fmt.Errorf("%s: %d reads / %d writes, %s issued %d / %d — protocols changed the access stream",
					name, r.Stats.Reads, r.Stats.Writes, baseSpec, base.Stats.Reads, base.Stats.Writes)
			}
			if r.Stats.CheckOutX != base.Stats.CheckOutX || r.Stats.CheckOutS != base.Stats.CheckOutS ||
				r.Stats.CheckIns != base.Stats.CheckIns ||
				r.Stats.PrefetchX != base.Stats.PrefetchX || r.Stats.PrefetchS != base.Stats.PrefetchS {
				return fmt.Errorf("%s: directive counts diverge from %s\n%s: %+v\n%s: %+v",
					name, baseSpec, spec, r.Stats, baseSpec, base.Stats)
			}
			if !slices.Equal(r.Store.Words(), base.Store.Words()) {
				return fmt.Errorf("%s: final shared memory diverges from %s", name, baseSpec)
			}
			if err := diffOutput(r.Output, base.Output); err != nil {
				return fmt.Errorf("%s vs %s: %w", name, baseSpec, err)
			}
		}
	}
	return nil
}
