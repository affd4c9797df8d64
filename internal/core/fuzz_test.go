package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cachier/internal/sim"
)

// genRaceFreeProgram builds a random SPMD program with no data races: each
// phase writes only the caller's own partition of one array, reads anything
// written in *earlier* phases (separated by barriers) plus its own cells of
// the currently-written array, and phases are barrier-delimited.
func genRaceFreeProgram(rng *rand.Rand) string {
	nArrays := 1 + rng.Intn(3)
	n := 32 + 16*rng.Intn(3) // 32, 48, 64; divisible by 4 nodes
	var sb strings.Builder
	fmt.Fprintf(&sb, "const N = %d;\n", n)
	names := make([]string, nArrays)
	twoD := make([]bool, nArrays)
	for a := 0; a < nArrays; a++ {
		names[a] = fmt.Sprintf("D%d", a)
		twoD[a] = rng.Intn(3) == 0
		if twoD[a] {
			fmt.Fprintf(&sb, "shared float %s[N][4] label %q;\n", names[a], names[a])
		} else {
			fmt.Fprintf(&sb, "shared float %s[N] label %q;\n", names[a], names[a])
		}
	}
	sb.WriteString(`
func main() {
    var per int = N / nprocs();
    var lo int = pid() * per;
    var hi int = lo + per - 1;
    if pid() == 0 {
        rndseed(7);
`)
	for a := 0; a < nArrays; a++ {
		if twoD[a] {
			fmt.Fprintf(&sb, `        for i = 0 to N - 1 {
            for j = 0 to 3 {
                %s[i][j] = rnd() + 0.5;
            }
        }
`, names[a])
		} else {
			fmt.Fprintf(&sb, `        for i = 0 to N - 1 {
            %s[i] = rnd() + 0.5;
        }
`, names[a])
		}
	}
	sb.WriteString("    }\n    barrier;\n")

	// readCell emits a read of array r at a random safe index expression.
	readCell := func(r int, ownOnly bool) string {
		var ix string
		switch {
		case ownOnly:
			ix = "i"
		case rng.Intn(2) == 0:
			ix = fmt.Sprintf("(i + %d) %% N", rng.Intn(n))
		default:
			ix = fmt.Sprintf("%d", rng.Intn(n))
		}
		if twoD[r] {
			return fmt.Sprintf("%s[%s][%d]", names[r], ix, rng.Intn(4))
		}
		return fmt.Sprintf("%s[%s]", names[r], ix)
	}

	phases := 1 + rng.Intn(3)
	for ph := 0; ph < phases; ph++ {
		target := rng.Intn(nArrays)
		// Build a random right-hand side from safe reads.
		terms := []string{readCell(target, true)}
		for k := 0; k < 1+rng.Intn(3); k++ {
			r := rng.Intn(nArrays)
			terms = append(terms, readCell(r, r == target))
		}
		rhs := strings.Join(terms, []string{" + ", " * ", " - "}[rng.Intn(3)])
		lhs := names[target] + "[i]"
		if twoD[target] {
			lhs = fmt.Sprintf("%s[i][%d]", names[target], rng.Intn(4))
		}
		fmt.Fprintf(&sb, `    for i = lo to hi {
        %s = (%s) * 0.5;
    }
    barrier;
`, lhs, rhs)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// TestAnnotateFuzzRaceFree: for random race-free programs, every annotation
// style must (a) produce text that re-parses (parsed here, before the run),
// (b) run without errors, and (c) leave every shared value bit-identical to
// the unannotated run.
func TestAnnotateFuzzRaceFree(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	rng := rand.New(rand.NewSource(20260706))
	cfg := sim.DefaultConfig()
	cfg.Nodes = 4
	traceCfg := cfg
	traceCfg.Mode = sim.ModeTrace

	for round := 0; round < 12; round++ {
		src := genRaceFreeProgram(rng)
		prog := mustParse(t, src)
		traced, err := sim.Run(prog, traceCfg)
		if err != nil {
			t.Fatalf("round %d: trace: %v\n%s", round, err, src)
		}
		base, err := sim.Run(mustParse(t, src), cfg)
		if err != nil {
			t.Fatalf("round %d: base: %v\n%s", round, err, src)
		}
		for _, opts := range []Options{
			{Style: StylePerformance, CacheSize: 256 * 1024},
			{Style: StylePerformance, CacheSize: 512},
			{Style: StylePerformance, CacheSize: 256 * 1024, Prefetch: true},
			{Style: StyleProgrammer, CacheSize: 256 * 1024},
			{Style: StyleProgrammer, CacheSize: 1024},
		} {
			ann, err := Annotate(src, traced.Trace, opts)
			if err != nil {
				t.Fatalf("round %d (%v): annotate: %v\n%s", round, opts.Style, err, src)
			}
			res, err := sim.Run(mustParse(t, ann.Source), cfg)
			if err != nil {
				t.Fatalf("round %d (%v): annotated run: %v\n%s", round, opts.Style, err, ann.Source)
			}
			for _, region := range base.Layout.Regions {
				for off := uint64(0); off < region.Bytes; off += 8 {
					addr := region.BaseAddr + off
					if base.Store.Load(addr) != res.Store.Load(addr) {
						t.Fatalf("round %d (%v, cache %d): %s+%d differs\nprogram:\n%s\nannotated:\n%s",
							round, opts.Style, opts.CacheSize, region.Name, off, src, ann.Source)
					}
				}
			}
		}
	}
}
