package parc_test

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"cachier/internal/parc"
	"cachier/internal/parcgen"
)

// FuzzParsePrint: no text makes the front end panic, and every program it
// accepts prints to text that parses back to an equal AST and prints the
// same again.
func FuzzParsePrint(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(parcgen.Generate(seed))
	}
	examples, _ := filepath.Glob("../../examples/parc/*.parc")
	for _, file := range examples {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, src := range literalCases {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := parc.Parse(src)
		if err != nil {
			return
		}
		out := parc.Print(prog)
		again, err := parc.Parse(out)
		if err != nil {
			t.Fatalf("printed program does not parse: %v\n%s", err, out)
		}
		if err := parc.ASTEqual(prog, again); err != nil {
			t.Fatalf("printed program differs: %v\n%s", err, out)
		}
		if out2 := parc.Print(again); out2 != out {
			t.Fatalf("print is not a fixpoint:\n%s\n---\n%s", out, out2)
		}
	})
}

// TestFrontEndAllocBudget is the host-independent gate on what the front
// end allocates. Print appends into one buffer sized from the statement
// count and copies it into the result, so a corpus program takes two
// allocations; building each expression with Sprintf it took over 200.
// Parsing the 200-program corpus slice allocates 2.66 MB with strconv
// literals and a statement slice, and 3.38 MB with Sscanf and a statement
// map; the budget lies between the two.
func TestFrontEndAllocBudget(t *testing.T) {
	var srcs []string
	for seed := int64(0); seed < 200; seed++ {
		srcs = append(srcs, parcgen.Generate(seed))
	}
	for seed, src := range srcs {
		prog := parc.MustParse(src)
		if n := testing.AllocsPerRun(5, func() { parc.Print(prog) }); n > 3 {
			t.Errorf("Print of corpus seed %d: %.0f allocations, budget 3", seed, n)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, src := range srcs {
		if _, err := parc.Parse(src); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	const budget = 3 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("parsing 200 corpus programs allocates %d bytes", got)
	if got > budget {
		t.Errorf("parsing 200 corpus programs allocates %d bytes, budget %d", got, budget)
	}
}
