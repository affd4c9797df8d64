package core

import (
	"strings"
	"testing"

	"cachier/internal/sim"
	"cachier/internal/trace"
)

// traceWithSeed traces the collapse-style program under a given seed marker
// by varying which half of the array the conditional touches.
const multiSrc = `
const N = 64;
const MODE = @;
shared float A[N] label "A";
func main() {
    if pid() == 0 {
        if MODE == 0 {
            for i = 0 to 31 {
                A[i] = 1.0;
            }
        } else {
            for i = 32 to 63 {
                A[i] = 2.0;
            }
        }
    }
}
`

func multiTrace(t *testing.T, mode string) (string, *trace.Trace) {
	t.Helper()
	src := strings.Replace(multiSrc, "@", mode, 1)
	cfg := sim.DefaultConfig()
	cfg.Nodes = 2
	cfg.Mode = sim.ModeTrace
	res, err := sim.Run(mustParse(t, src), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return src, res.Trace
}

func TestAnnotateMultiUnionsBehaviours(t *testing.T) {
	// The two inputs exercise disjoint halves of A; the training set must
	// produce annotations covering both, where a single trace covers one.
	src0, tr0 := multiTrace(t, "0")
	_, tr1 := multiTrace(t, "1")
	// Both traces come from structurally identical sources (only the MODE
	// constant differs), so statement IDs align; annotate the MODE=0 text.
	single, err := Annotate(src0, tr0, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	multi, err := AnnotateMulti(mustParse(t, src0), []*trace.Trace{tr0, tr1}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(single.Source, "check_in A") {
		t.Fatalf("single-trace annotation missing:\n%s", single.Source)
	}
	if multi.Annotations <= single.Annotations {
		t.Errorf("training set produced %d annotations, single trace %d — no union visible",
			multi.Annotations, single.Annotations)
	}
	// The multi-trace result must cover the second half too.
	if !strings.Contains(multi.Source, "= 2.0;") {
		t.Fatal("source mangled")
	}
	secondLoop := multi.Source[strings.Index(multi.Source, "for i = 32 to 63"):]
	if !strings.Contains(secondLoop, "check_in A") {
		t.Errorf("second behaviour not annotated:\n%s", multi.Source)
	}
	// And it must still run.
	cfg := sim.DefaultConfig()
	cfg.Nodes = 2
	if _, err := sim.Run(mustParse(t, multi.Source), cfg); err != nil {
		t.Errorf("multi-annotated program failed: %v", err)
	}
}

func TestAnnotateMultiValidation(t *testing.T) {
	if _, err := AnnotateMulti(mustParse(t, "func main() { }"), nil, DefaultOptions()); err == nil {
		t.Error("empty trace set accepted")
	}
	src, tr0 := multiTrace(t, "0")
	bad := &trace.Trace{Nodes: 2, BlockSize: 64}
	if _, err := AnnotateMulti(mustParse(t, src), []*trace.Trace{tr0, bad}, DefaultOptions()); err == nil {
		t.Error("mismatched block sizes accepted")
	}
}

func TestAnnotateMultiSingleEqualsAnnotate(t *testing.T) {
	src, tr := multiTrace(t, "0")
	a, err := Annotate(src, tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m, err := AnnotateMulti(mustParse(t, src), []*trace.Trace{tr}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Source != m.Source {
		t.Errorf("single-trace AnnotateMulti differs from Annotate:\n%s\n---\n%s", a.Source, m.Source)
	}
}
