package core_test

import (
	"runtime"
	"testing"

	"cachier/internal/bench"
	"cachier/internal/core"
	"cachier/internal/parc"
	"cachier/internal/sim"
)

// TestAnnotateAllocBudget is the host-independent gate on what annotation
// allocates: the heap bytes and objects of one core.Annotate (Performance
// CICO with prefetch, the costlier of a Figure 6 port's two passes) on the
// two largest Figure 6 training traces. With every address set a Go map the
// call allocated 88.4 MB in 399 231 objects on Tomcatv and 22.6 MB in
// 105 313 on Barnes; on sorted slices it reads 20.0 MB in 9 031 and 6.9 MB in
// 21 206. The budgets sit a quarter above the second pair, so a map keyed by
// address on any stage of the path does not fit in them.
func TestAnnotateAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		b           *bench.Benchmark
		bytes, objs uint64
	}{
		{bench.Tomcatv(), 25_000_000, 11_500},
		{bench.Barnes(), 8_700_000, 27_000},
	} {
		cfg := sim.DefaultConfig()
		cfg.Nodes = tc.b.Nodes
		cfg.Mode = sim.ModeTrace
		src := tc.b.Source(tc.b.Train)
		traced, err := sim.Run(parc.MustParse(src), cfg)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.Prefetch = true
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := core.Annotate(src, traced.Trace, opts); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes, objs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		t.Logf("Annotate(%s): %d bytes, %d allocations", tc.b.Name, bytes, objs)
		if bytes > tc.bytes {
			t.Errorf("Annotate(%s) allocates %d bytes, budget %d", tc.b.Name, bytes, tc.bytes)
		}
		if objs > tc.objs {
			t.Errorf("Annotate(%s) makes %d allocations, budget %d", tc.b.Name, objs, tc.objs)
		}
	}
}
