package core

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cachier/internal/oracle"
	"cachier/internal/sim"
)

// matMulSrc is the paper's Section 4.4 "unconventional" matrix multiply:
// each processor owns a block of B (rows Lkp:Ukp x columns Ljp:Ujp), A is
// read-shared, and C is read-write shared with a data race on its elements.
// N=16, P=2 (4 processors), so each processor's B block is 8x8.
const matMulSrc = `
const N = 16;
const P = 2;
const BS = N / P;

shared float A[N][N] label "A";
shared float B[N][N] label "B";
shared float C[N][N] label "C";

func main() {
    var lkp int = (pid() / P) * BS;
    var ukp int = lkp + BS - 1;
    var ljp int = (pid() % P) * BS;
    var ujp int = ljp + BS - 1;
    var t float;
    if pid() == 0 {
        for i = 0 to N - 1 {
            for j = 0 to N - 1 {
                A[i][j] = rnd();
                B[i][j] = rnd();
                C[i][j] = 0.0;
            }
        }
    }
    barrier;
    for i = 0 to N - 1 {
        for k = lkp to ukp {
            t = A[i][k];
            for j = ljp to ujp {
                C[i][j] = C[i][j] + t * B[k][j];
            }
        }
    }
    barrier;
}
`

func traceOf(t *testing.T, src string, nodes int) *simTrace {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Nodes = nodes
	cfg.Mode = sim.ModeTrace
	prog := mustParse(t, src)
	res, err := sim.Run(prog, cfg)
	if err != nil {
		t.Fatalf("trace run: %v", err)
	}
	return &simTrace{res: res}
}

type simTrace struct{ res *sim.Result }

func annotate(t *testing.T, src string, nodes int, opts Options) *Result {
	t.Helper()
	tr := traceOf(t, src, nodes)
	out, err := Annotate(src, tr.res.Trace, opts)
	if err != nil {
		t.Fatalf("annotate: %v", err)
	}
	return out
}

func TestMatMulProgrammerCICO(t *testing.T) {
	opts := DefaultOptions()
	opts.Style = StyleProgrammer
	opts.CacheSize = 512 // paper regime: rows fit, processor blocks do not
	res := annotate(t, matMulSrc, 4, opts)
	src := res.Source

	// C is involved in a data race: its check-out-exclusive and check-in
	// are pinned immediately around the update, with a flag (Section 4.4).
	mustContainInOrder(t, src,
		"check_out_x C[i][j];",
		"/*** Data Race on C[i][j] ***/",
		"C[i][j] = C[i][j] + t * B[k][j];",
		"check_in C[i][j];",
	)
	// B is checked out shared as a row slice, hoisted above the j loop but
	// not above the k loop (its 8x8 block exceeds the cache budget), and
	// checked back in after the j loop.
	mustContainInOrder(t, src,
		"check_out_s B[k][ljp:ujp];",
		"for j = ljp to ujp {",
		"}",
		"check_in B[k][ljp:ujp];",
	)
	// A is checked out shared near its reference, inside the i loop.
	if !strings.Contains(src, "check_out_s A[i]") {
		t.Errorf("A not checked out shared:\n%s", src)
	}
	if res.Annotations == 0 {
		t.Error("no annotations inserted")
	}
	// The race on C is reported.
	foundRace := false
	for _, r := range res.Reports {
		if r.Kind == "data race" && r.Var == "C" {
			foundRace = true
		}
	}
	if !foundRace {
		t.Errorf("race on C not reported: %+v", res.Reports)
	}
}

func TestMatMulPerformanceCICO(t *testing.T) {
	opts := DefaultOptions()
	opts.Style = StylePerformance
	opts.CacheSize = 512
	res := annotate(t, matMulSrc, 4, opts)
	src := res.Source

	// Performance CICO omits all check_out_s: Dir1SW checks out implicitly
	// on read misses (Section 4.4).
	if strings.Contains(src, "check_out_s") {
		t.Errorf("performance CICO contains check_out_s:\n%s", src)
	}
	// The check-out exclusive for C remains (it write-faults), pinned with
	// the race flag, and C is checked in right after the reference.
	mustContainInOrder(t, src,
		"check_out_x C[i][j];",
		"/*** Data Race on C[i][j] ***/",
		"C[i][j] = C[i][j] + t * B[k][j];",
		"check_in C[i][j];",
	)
	// Matrices are checked in after one processor initializes them
	// (Section 6: "part of the improvement arises from checking-in these
	// matrices after initialization").
	init := src[:strings.Index(src, "barrier;")]
	if !strings.Contains(init, "check_in A[i]") || !strings.Contains(init, "check_in B[i]") {
		t.Errorf("initialization epoch not checked in:\n%s", src)
	}
	// A and B get no check-ins in the compute epoch: not write shared.
	compute := src[strings.Index(src, "barrier;"):]
	if strings.Contains(compute, "check_in A[") || strings.Contains(compute, "check_in B[") {
		t.Errorf("read-only matrices checked in during compute epoch:\n%s", compute)
	}
}

// raceFreeMM partitions the output matrix: each processor computes its own
// columns of C completely, so the result is schedule-independent.
const raceFreeMM = `
const N = 16;
const PROCS = 4;
const COLS = N / PROCS;

shared float A[N][N] label "A";
shared float B[N][N] label "B";
shared float C[N][N] label "C";

func main() {
    var lj int = pid() * COLS;
    var uj int = lj + COLS - 1;
    if pid() == 0 {
        for i = 0 to N - 1 {
            for j = 0 to N - 1 {
                A[i][j] = rnd();
                B[i][j] = rnd();
            }
        }
    }
    barrier;
    for i = 0 to N - 1 {
        for j = lj to uj {
            var acc float = 0.0;
            for k = 0 to N - 1 {
                acc += A[i][k] * B[k][j];
            }
            C[i][j] = acc;
        }
    }
    barrier;
}
`

func TestAnnotatedProgramSemanticsUnchanged(t *testing.T) {
	// CICO annotations must not affect results (Section 4.5). The target is
	// race-free, so its output is schedule-independent and must match
	// exactly between annotated and unannotated runs. (The Section 4.4
	// matrix multiply is deliberately racy, so its results legitimately
	// depend on timing — even trace collection can change them, Section 3.3.)
	res := annotate(t, raceFreeMM, 4, DefaultOptions())

	cfg := sim.DefaultConfig()
	cfg.Nodes = 4
	base, err := sim.Run(mustParse(t, raceFreeMM), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ann, err := sim.Run(mustParse(t, res.Source), cfg)
	if err != nil {
		t.Fatalf("annotated program failed: %v\n%s", err, res.Source)
	}
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			a1, _ := base.Layout.AddrOf("C", i, j)
			a2, _ := ann.Layout.AddrOf("C", i, j)
			if base.Store.Load(a1) != ann.Store.Load(a2) {
				t.Fatalf("C[%d][%d] differs between annotated and unannotated runs", i, j)
			}
		}
	}
}

// matMulScaled is the Section 4.4 matrix multiply at the scale used for the
// performance comparison: 16 processors (P=4), a 32x32 matrix.
const matMulScaled = `
const N = 32;
const P = 4;
const BS = N / P;

shared float A[N][N] label "A";
shared float B[N][N] label "B";
shared float C[N][N] label "C";

func main() {
    var lkp int = (pid() / P) * BS;
    var ukp int = lkp + BS - 1;
    var ljp int = (pid() % P) * BS;
    var ujp int = ljp + BS - 1;
    var t float;
    if pid() == 0 {
        for i = 0 to N - 1 {
            for j = 0 to N - 1 {
                A[i][j] = rnd();
                B[i][j] = rnd();
                C[i][j] = 0.0;
            }
        }
    }
    barrier;
    for i = 0 to N - 1 {
        for k = lkp to ukp {
            t = A[i][k];
            for j = ljp to ujp {
                C[i][j] = C[i][j] + t * B[k][j];
            }
        }
    }
    barrier;
}
`

func TestAnnotationsImprovePerformance(t *testing.T) {
	// The headline claim, in miniature: the Cachier-annotated matrix
	// multiply beats the unannotated version under Dir1SW at the paper's
	// kind of scale (where trapped upgrades broadcast invalidations).
	res := annotate(t, matMulScaled, 16, DefaultOptions())

	cfg := sim.DefaultConfig()
	cfg.Nodes = 16
	base, err := sim.Run(mustParse(t, matMulScaled), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ann, err := sim.Run(mustParse(t, res.Source), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ann.Stats.WriteFaults >= base.Stats.WriteFaults {
		t.Errorf("write faults not reduced: %d -> %d", base.Stats.WriteFaults, ann.Stats.WriteFaults)
	}
	if ann.Cycles >= base.Cycles {
		t.Errorf("annotated slower: %d -> %d cycles", base.Cycles, ann.Cycles)
	}
}

// Section 4.3's loop-collapsing example (E8), at cache-block granularity
// (blocks hold 4 elements, so the paper's stride-2 example is widened to
// stride 8 = 2 blocks): a strided loop writes every other block, then a full
// loop writes everything. Cachier keeps a per-element annotation inside the
// strided loop (its step blocks hoisting), generates a new strided loop to
// check out the blocks the first loop did not touch, and generates a
// check-in loop covering every touched block after the second loop.
const collapseSrc = `
const N = 64;
shared float A[N] label "A";

func main() {
    if pid() == 0 {
        for i = 0 to 56 step 8 {
            A[i] = 1.0;
        }
        for i = 0 to 63 {
            A[i] = 2.0;
        }
    }
}
`

func TestLoopCollapsePresentation(t *testing.T) {
	opts := DefaultOptions()
	opts.Style = StyleProgrammer
	res := annotate(t, collapseSrc, 2, opts)
	src := res.Source

	// Per-element annotation stays inside the strided loop.
	mustContainInOrder(t, src,
		"for i = 0 to 56 step 8 {",
		"check_out_x A[i];",
		"A[i] = 1.0;",
	)
	// A generated loop checks out the other blocks' elements (4, 12, ...,
	// 60) before the second loop.
	mustContainInOrder(t, src,
		"for __cico",
		"= 4 to 60 step 8 {",
		"check_out_x A[__cico",
		"for i = 0 to 63 {",
	)
	// A generated check-in loop covering every touched block (one element
	// per block: 0, 4, ..., 60) follows the second loop.
	idx := strings.LastIndex(src, "A[i] = 2.0;")
	if idx < 0 {
		t.Fatalf("program body missing:\n%s", src)
	}
	tail := src[idx:]
	mustContainInOrder(t, tail,
		"= 0 to 60 step 4 {",
		"check_in A[__cico",
	)
	// No check-in inside the first loop: the blocks are reused by the
	// second loop (static refinement of the miss-PC placement).
	first := src[strings.Index(src, "for i = 0 to 56 step 8 {"):strings.Index(src, "for i = 0 to 63 {")]
	if strings.Contains(first, "check_in") {
		t.Errorf("premature check-in inside the first loop:\n%s", src)
	}
	// The second loop's body itself needs no check-out.
	second := src[strings.Index(src, "for i = 0 to 63 {"):]
	body := second[:strings.Index(second, "}")]
	if strings.Contains(body, "check_out") {
		t.Errorf("second loop body has a redundant check-out:\n%s", src)
	}
}

// counterClashSrc is collapseSrc with a user variable named like the counter
// its generated check-out loop would get from the insertion count.
const counterClashSrc = `
const N = 64;
shared float A[N] label "A";

func main() {
    var __cico1 int = 7;
    if pid() == 0 {
        for i = 0 to 56 step 8 {
            A[i] = 1.0;
        }
        for i = 0 to 63 {
            A[i] = 2.0;
        }
        print("x %d", __cico1);
    }
}
`

// TestGeneratedCounterKeepsUserVariable: a generated loop's counter never
// reuses a name the function already binds, so the annotated program prints
// and stores exactly what the original does (Section 4.5) — run from the
// annotated text, parsed.
func TestGeneratedCounterKeepsUserVariable(t *testing.T) {
	opts := DefaultOptions()
	opts.Style = StyleProgrammer
	res := annotate(t, counterClashSrc, 2, opts)
	if !strings.Contains(res.Source, "= 4 to 60 step 8 {") {
		t.Fatalf("no generated check-out loop to test:\n%s", res.Source)
	}
	if strings.Contains(res.Source, "for __cico1 =") {
		t.Errorf("generated loop reuses the user's variable __cico1:\n%s", res.Source)
	}
	cfg := oracle.Config{Nprocs: 2}
	want, err := oracle.Run(mustParse(t, counterClashSrc), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := oracle.Run(mustParse(t, res.Source), cfg)
	if err != nil {
		t.Fatalf("annotated program: %v\n%s", err, res.Source)
	}
	if !reflect.DeepEqual(got.Output, want.Output) {
		t.Errorf("annotated program prints %q, the original %q", got.Output, want.Output)
	}
	if !reflect.DeepEqual(got.Store.Words(), want.Store.Words()) {
		t.Errorf("annotated program leaves different shared memory")
	}
}

func TestAnnotateRejectsMismatchedTrace(t *testing.T) {
	tr := traceOf(t, matMulSrc, 4)
	otherSrc := `
shared float X[8] label "X";
func main() { X[0] = 1.0; }
`
	if _, err := Annotate(otherSrc, tr.res.Trace, DefaultOptions()); err == nil {
		t.Error("mismatched trace accepted")
	}
}

func TestAnnotateIdempotentKeys(t *testing.T) {
	// Epochs executed multiple times (time-step loops around barriers) must
	// not duplicate annotations.
	src := `
const N = 32;
shared float A[N] label "A";
func main() {
    var steps int = 3;
    var s int = 0;
    while s < steps {
        A[pid() * 8] = float(s);
        barrier;
        s += 1;
    }
}
`
	res := annotate(t, src, 4, DefaultOptions())
	if n := strings.Count(res.Source, "check_in A[pid() * 8];"); n > 1 {
		t.Errorf("duplicated annotation (%d copies):\n%s", n, res.Source)
	}
}

// stencilSrc is a 1-D relaxation: a time-step loop around two barriers, each
// node reading its neighbours' boundary elements.
const stencilSrc = `
const N = 64;
shared float A[N] label "A";
shared float B[N] label "B";
func main() {
    var per int = N / nprocs();
    var lo int = pid() * per;
    var hi int = lo + per - 1;
    for i = lo to hi {
        A[i] = float(i);
    }
    barrier;
    var s int = 0;
    while s < 3 {
        for i = lo to hi {
            B[i] = A[(i + 1) % N] + A[(i + N - 1) % N];
        }
        barrier;
        for i = lo to hi {
            A[i] = B[i];
        }
        barrier;
        s += 1;
    }
}
`

// TestAnnotateOrderIndependent: a trace carries no order among an epoch's
// misses (Section 3), and ProcessTrace groups them by the order sim.Run
// happens to leave them in, so Annotate on the same trace with every epoch
// shuffled must return byte-identical source, reports and cost report. The
// programs cover races and false sharing (pinned, spread placement), a
// generated strided loop, and a repeatedly executed epoch.
func TestAnnotateOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for name, src := range map[string]string{
		"racy matmul": matMulSrc, "race-free matmul": raceFreeMM, "strided": collapseSrc, "time steps": stencilSrc,
	} {
		tr := traceOf(t, src, 4).res.Trace
		shuffled := *tr
		shuffled.Epochs = slices.Clone(tr.Epochs)
		for i := range shuffled.Epochs {
			ms := slices.Clone(shuffled.Epochs[i].Misses)
			rng.Shuffle(len(ms), func(a, b int) { ms[a], ms[b] = ms[b], ms[a] })
			shuffled.Epochs[i].Misses = ms
		}
		for _, opts := range []Options{
			{Style: StylePerformance, CacheSize: 256 * 1024, Prefetch: true},
			{Style: StyleProgrammer, CacheSize: 512},
		} {
			want, err := Annotate(src, tr, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err := Annotate(src, &shuffled, opts)
			if err != nil {
				t.Fatalf("%s, shuffled: %v", name, err)
			}
			if got.Source != want.Source {
				t.Errorf("%s (%v): shuffling the trace changed the annotated source:\n%s\n--- was ---\n%s", name, opts.Style, got.Source, want.Source)
			}
			if !reflect.DeepEqual(got.Reports, want.Reports) {
				t.Errorf("%s (%v): shuffling the trace changed the reports: %+v, was %+v", name, opts.Style, got.Reports, want.Reports)
			}
			if !reflect.DeepEqual(got.Cost, want.Cost) || got.Cost.String() != want.Cost.String() {
				t.Errorf("%s (%v): shuffling the trace changed the cost report:\n%s--- was ---\n%s", name, opts.Style, got.Cost, want.Cost)
			}
		}
	}
}
