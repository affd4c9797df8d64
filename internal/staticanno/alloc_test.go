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
// at the paper's 32 nodes. While vet's events were copied into a summary of
// their own and the replay built an address slice for every access, even a
// one-element one, this call allocated 1 004 MB; reading vet's stream
// through a cursor whose odometer walks each access's elements it allocates
// 170 MB. An address slice per access does not fit in the budget.
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
	const budget = 256 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Infer(%s, 32 nodes) allocates %d MB", b.Name, got>>20)
	if got > budget {
		t.Errorf("Infer allocates %d bytes, budget %d", got, budget)
	}
}
