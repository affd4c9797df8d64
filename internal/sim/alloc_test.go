package sim

import (
	"runtime"
	"testing"

	"cachier/internal/parc"
	"cachier/internal/parcgen"
)

// smallRunAllocs runs one 4-node corpus program repeatedly on one parsed AST
// and returns the heap bytes and the allocations of one Run.
func smallRunAllocs(t *testing.T, mode Mode) (bytesPerRun, allocsPerRun float64) {
	t.Helper()
	prog, err := parc.Parse(parcgen.Generate(7))
	if err != nil {
		t.Fatal(err)
	}
	cfg := cfg4()
	cfg.Mode = mode
	run := func() {
		if _, err := Run(prog, cfg); err != nil {
			t.Fatal(err)
		}
	}
	run() // compiles the bytecode, which later runs reuse
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocsPerRun = testing.AllocsPerRun(runs, run)
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call besides the measured ones.
	return float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1), allocsPerRun
}

// TestSmallRunAllocBudget is the host-independent gate beside the timing
// one: what a run of a tiny program allocates must follow the program (here
// 10 blocks of shared data on 4 nodes), not the modelled machine's 256 KB
// caches. With every set of every cache materialised a trace-mode run of
// this program allocated 538 851 bytes and a measuring run 533 457, in 132
// and 98 allocations; the byte budgets are a quarter of that (the runs now
// read 16 585 and 14 440, the caches' hot keys included), and one full-geometry
// cache array, 131 072 bytes, does not fit in them.
func TestSmallRunAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name        string
		mode        Mode
		bytes, objs float64
	}{
		{"trace", ModeTrace, 134_000, 150},
		{"measure", ModePerf, 133_000, 115},
	} {
		bytes, objs := smallRunAllocs(t, tc.mode)
		t.Logf("%s: %.0f bytes, %.0f allocations a run", tc.name, bytes, objs)
		if bytes > tc.bytes {
			t.Errorf("%s: a run allocates %.0f bytes, budget %.0f", tc.name, bytes, tc.bytes)
		}
		if objs > tc.objs {
			t.Errorf("%s: a run makes %.0f allocations, budget %.0f", tc.name, objs, tc.objs)
		}
	}
}
