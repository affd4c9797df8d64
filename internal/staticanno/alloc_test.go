package staticanno_test

import (
	"runtime"
	"testing"

	"cachier/internal/bench"
	"cachier/internal/parc"
	"cachier/internal/staticanno"
)

// TestInferAllocBudget is the host-independent gate on what inference
// allocates: the bytes of one Infer on the Figure 6 port that costs it most,
// at the paper's 32 nodes. With every node's event stream flattened into a
// second copy before the replay read it once (widened accesses expanded
// element by element) this call allocated 16 929 MB; pulling the events from
// a cursor over the inferred epochs it allocates 1 174 MB. The budget is a
// quarter of the first number, so that copy does not fit in it.
func TestInferAllocBudget(t *testing.T) {
	b := bench.Barnes()
	prog, err := parc.Parse(b.Source(b.Train))
	if err != nil {
		t.Fatal(err)
	}
	cfg := staticanno.DefaultConfig()
	cfg.Nodes = 32
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := staticanno.Infer(prog, cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const budget = 4232 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Infer(%s, 32 nodes) allocates %d MB", b.Name, got>>20)
	if got > budget {
		t.Errorf("Infer allocates %d bytes, budget %d", got, budget)
	}
}
