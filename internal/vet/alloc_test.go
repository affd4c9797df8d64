package vet_test

import (
	"os"
	"runtime"
	"testing"

	"cachier/internal/bench"
	"cachier/internal/parc"
	"cachier/internal/vet"
)

// TestAnalyzeAllocBudget is the host-independent gate on what the abstract
// interpreter and the race finder allocate: the bytes of one Analyze at the
// paper's 32 nodes, on two programs.
//
// Barnes's training source is the Figure 6 port that costs Analyze most, and
// almost all of it is abstract interpretation. When every event carried its
// subscript text and each branch cloned the frame twice this call allocated
// 88.6 MB; it now allocates 43.8 MB.
//
// testdata/races_many.parc races on every epoch, so almost all of its cost is
// the race finder's pairing. With a formatted key per access and per racing
// pair, and lock sets split from strings, it allocated 19.1 MB; keyed by
// integers and pointers it allocates 1.8 MB. A formatted key per access and
// subscript text per evaluated access bring it back to 2.7 MB, over the
// budget.
func TestAnalyzeAllocBudget(t *testing.T) {
	b := bench.Barnes()
	many, err := os.ReadFile("testdata/races_many.parc")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, src string
		budget    uint64
	}{
		{b.Name, b.Source(b.Train), 52 << 20},
		{"races_many", string(many), 5 << 19},
	} {
		prog, err := parc.Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		vet.Analyze(prog, vet.Options{Nprocs: 32})
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("Analyze(%s, 32 nodes) allocates %.1f MB", c.name, float64(got)/(1<<20))
		if got > c.budget {
			t.Errorf("Analyze(%s) allocates %d bytes, budget %d", c.name, got, c.budget)
		}
	}
}
