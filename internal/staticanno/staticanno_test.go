package staticanno

import (
	"errors"
	"strings"
	"testing"

	"cachier/internal/parc"
	"cachier/internal/parcgen"
	"cachier/internal/sim"
	"cachier/internal/trace"
)

const partitionSrc = `
const N = 64;
shared float A[N] label "A";
shared float B[N] label "B";
func main() {
    var chunk int = N / nprocs();
    var lo int = pid() * chunk;
    for i = lo to lo + chunk - 1 {
        A[i] = float(i);
    }
    barrier;
    for i = lo to lo + chunk - 1 {
        B[i] = A[i] * 2.0;
    }
    barrier;
}`

func parseTest(t *testing.T, src string) *parc.Program {
	t.Helper()
	prog, err := parc.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func simTrace(t *testing.T, src string, nodes int) *trace.Trace {
	t.Helper()
	prog := parseTest(t, src)
	cfg := sim.DefaultConfig()
	cfg.Nodes = nodes
	cfg.Mode = sim.ModeTrace
	res, err := sim.Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

func testConfig(nodes int) Config {
	c := DefaultConfig()
	c.Nodes = nodes
	return c
}

// sameMisses compares two traces' epoch structure and miss sets, ignoring
// virtual times (the static trace has none).
func sameMisses(t *testing.T, got, want *trace.Trace) {
	t.Helper()
	if len(got.Epochs) != len(want.Epochs) {
		t.Fatalf("epoch count: static %d, simulated %d", len(got.Epochs), len(want.Epochs))
	}
	for i := range want.Epochs {
		ge, we := got.Epochs[i], want.Epochs[i]
		if ge.BarrierPC != we.BarrierPC {
			t.Errorf("epoch %d barrier pc: static %d, simulated %d", i, ge.BarrierPC, we.BarrierPC)
		}
		if len(ge.Misses) != len(we.Misses) {
			t.Fatalf("epoch %d: static has %d misses, simulated %d\nstatic:    %v\nsimulated: %v",
				i, len(ge.Misses), len(we.Misses), ge.Misses, we.Misses)
		}
		for k := range we.Misses {
			if ge.Misses[k] != we.Misses[k] {
				t.Errorf("epoch %d miss %d: static %+v, simulated %+v", i, k, ge.Misses[k], we.Misses[k])
			}
		}
	}
}

// TestInferMatchesSimulatedTrace is the tentpole's core claim in miniature:
// on a race-free, concretely enumerable partition program the synthetic
// trace carries exactly the misses a simulated trace run records.
func TestInferMatchesSimulatedTrace(t *testing.T) {
	const nodes = 4
	inf, err := Infer(parseTest(t, partitionSrc), testConfig(nodes))
	if err != nil {
		t.Fatal(err)
	}
	if !inf.Exact {
		t.Fatalf("partition program should infer exactly; notes: %v", inf.Notes)
	}
	sameMisses(t, inf.Trace, simTrace(t, partitionSrc, nodes))
}

// TestExactInferenceDigestsAsSimulated pins DESIGN.md §9's claim end to end,
// on the key cachierd shares an annotation under: over parcgen seeds 0–199
// at 4 nodes, every Exact inference's trace has the simulated trace's
// digest, so /v1/static's annotation is /v1/annotate's.
func TestExactInferenceDigestsAsSimulated(t *testing.T) {
	const nodes = 4
	exact := 0
	for seed := int64(0); seed < 200; seed++ {
		src := parcgen.Generate(seed)
		inf, err := Infer(parseTest(t, src), testConfig(nodes))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !inf.Exact {
			continue
		}
		exact++
		if inf.Trace.Digest() != simTrace(t, src, nodes).Digest() {
			t.Errorf("seed %d: an exact inference's trace digests unlike the simulated trace", seed)
		}
	}
	t.Logf("%d of 200 programs infer exactly", exact)
	if exact < 190 {
		t.Errorf("only %d of 200 programs infer exactly; the check covers too few", exact)
	}
	// A loop counter read after its loop holds its last value, and a loop
	// of no trips leaves it alone.
	for _, src := range []string{`
shared int A[8] label "A";
func main() {
    for i = 0 to 3 { A[i] = 1; }
    barrier;
    A[i] = 2;
}`, `
shared int A[8] label "A";
func main() {
    for i = 5 to 4 { A[i] = 1; }
    barrier;
    A[i] = 2;
}`} {
		inf, err := Infer(parseTest(t, src), testConfig(nodes))
		if err != nil {
			t.Fatal(err)
		}
		if !inf.Exact {
			t.Errorf("%s\ninfers inexactly: %v", src, inf.Notes)
		} else if inf.Trace.Digest() != simTrace(t, src, nodes).Digest() {
			t.Errorf("%s\nan exact inference's trace digests unlike the simulated trace", src)
		}
	}
}

// TestInferLabels: the synthetic trace must carry the same labelling the
// simulator attaches, or core.Annotate's label check rejects it.
func TestInferLabels(t *testing.T) {
	inf, err := Infer(parseTest(t, partitionSrc), testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	sim := simTrace(t, partitionSrc, 4)
	if len(inf.Trace.Labels) != len(sim.Labels) {
		t.Fatalf("label count: static %d, simulated %d", len(inf.Trace.Labels), len(sim.Labels))
	}
	for i, l := range sim.Labels {
		g := inf.Trace.Labels[i]
		if g.Name != l.Name || g.Base != l.Base || g.Elem != l.Elem || len(g.Dims) != len(l.Dims) {
			t.Errorf("label %d: static %+v, simulated %+v", i, g, l)
		}
	}
}

func testMachine(nodes int) sim.Config {
	mc := sim.DefaultConfig()
	mc.Nodes = nodes
	return mc
}

// TestCompareAllStylesMatch: end-to-end differential — both pipelines must
// print byte-identical annotated sources in every style.
func TestCompareAllStylesMatch(t *testing.T) {
	c, err := Compare(parseTest(t, partitionSrc), testMachine(4))
	if err != nil {
		t.Fatal(err)
	}
	if !c.Inferred.Exact {
		t.Fatalf("expected exact inference; notes: %v", c.Inferred.Notes)
	}
	if c.Matched != len(c.Styles) || c.Covers != nil || c.StaticOnly+c.TracedOnly != 0 {
		t.Errorf("%d/%d styles match, covers %v, footprint %d+%d-%d; want all, nil, none apart",
			c.Matched, len(c.Styles), c.Covers, c.Both, c.StaticOnly, c.TracedOnly)
	}
	for _, d := range c.Styles {
		if !d.Match {
			t.Errorf("%s placements diverge:\n%s", d.Name, d.Diff)
		}
		if d.Static.Annotations == 0 {
			t.Errorf("%s: static pipeline placed no annotations", d.Name)
		}
	}
}

// TestInferInexactOverapproximates: with an input-dependent subscript the
// static trace must still cover the footprint any execution could touch.
func TestInferInexactOverapproximates(t *testing.T) {
	const src = `
const N = 8;
shared float A[N] label "A";
shared int idx label "idx";
func main() {
    if pid() == 0 {
        A[idx] = 1.0;
    }
    barrier;
}`
	c, err := Compare(parseTest(t, src), testMachine(2))
	if err != nil {
		t.Fatal(err)
	}
	inf := c.Inferred
	if inf.Exact {
		t.Fatal("input-dependent subscript should be inexact")
	}
	// Node 0's write misses must cover every block of A (misses record only
	// first touches per block, as in a simulated trace: 8 elements of 8
	// bytes span 2 blocks of 32).
	blocks := map[uint64]bool{}
	for _, m := range inf.Trace.Epochs[0].Misses {
		if m.Node == 0 && m.Kind != trace.ReadMiss {
			blocks[m.Addr/32] = true
		}
	}
	if len(blocks) != 2 {
		t.Errorf("widened write should touch both blocks of A, touched %d", len(blocks))
	}
	// The simulation wrote A[0] only: covered, with the other block extra.
	if c.Covers != nil || c.StaticOnly == 0 {
		t.Errorf("covers %v, %d static-only block(s); want nil and some", c.Covers, c.StaticOnly)
	}
}

func TestDiffLines(t *testing.T) {
	if d := DiffLines("a\nb\nc\n", "a\nb\nc\n"); d != "" {
		t.Errorf("equal inputs diffed: %q", d)
	}
	d := DiffLines("a\nb\nc\n", "a\nx\nc\n")
	if !strings.Contains(d, "-   2 b") || !strings.Contains(d, "+   2 x") {
		t.Errorf("unexpected diff:\n%s", d)
	}
}

// TestInferMachineFaults: a program that faults the machine faults the
// replay the same way, because it is the same machine. Inference returns
// the simulator's own error for a release of a lock that is not held and
// for a lock whose holder exits while another node still waits for it.
func TestInferMachineFaults(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"unlock of a lock not held", `
shared int v[4];
func main() {
    v[pid()] = pid();
    if (pid() == 3) {
        unlock(9);
    }
    v[pid()] = v[pid()] + 1;
}`},
		{"holder exits with a waiter", `
func main() {
    if (pid() == 0) {
        lock(1);
    }
    if (pid() != 0) {
        lock(1);
        unlock(1);
    }
}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := parseTest(t, tc.src)
			cfg := sim.DefaultConfig()
			cfg.Nodes = 4
			cfg.Mode = sim.ModeTrace
			_, simErr := sim.Run(prog, cfg)
			if simErr == nil || !strings.HasPrefix(simErr.Error(), "sim: ") {
				t.Fatalf("simulation error = %v, want a machine fault", simErr)
			}
			_, err := Infer(prog, testConfig(4))
			if err == nil || err.Error() != simErr.Error() {
				t.Errorf("Infer error = %v, want the simulator's %q", err, simErr)
			}
			if !errors.Is(err, ErrMachineFault) {
				t.Errorf("Infer error %v does not match ErrMachineFault", err)
			}
		})
	}
}
