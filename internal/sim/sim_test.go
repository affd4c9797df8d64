package sim

import (
	"strings"
	"testing"

	"cachier/internal/interp"
	"cachier/internal/parc"
	"cachier/internal/trace"
)

func cfg4() Config {
	c := DefaultConfig()
	c.Nodes = 4
	return c
}

func runSrc(t *testing.T, src string, cfg Config) *Result {
	t.Helper()
	prog, err := parc.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Run(prog, cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func load(t *testing.T, res *Result, name string, ix ...int) interp.Value {
	t.Helper()
	addr, err := res.Layout.AddrOf(name, ix...)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Layout.Region(name)
	return interp.FromBits(res.Store.Load(addr), r.Base == parc.FloatType)
}

func TestSPMDExecutionAllNodes(t *testing.T) {
	res := runSrc(t, `
shared int out[4];
func main() {
    out[pid()] = pid() + 10;
}
`, cfg4())
	for i := 0; i < 4; i++ {
		if got := load(t, res, "out", i).AsInt(); got != int64(i+10) {
			t.Errorf("out[%d] = %d", i, got)
		}
	}
	if res.Cycles == 0 {
		t.Error("zero execution time")
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	// Node 0 does much more work before the barrier; after it, all nodes
	// proceed from the same release time, so completion clocks are close.
	res := runSrc(t, `
shared int sink[4];
func main() {
    if pid() == 0 {
        var acc int = 0;
        for i = 0 to 20000 { acc += i; }
        sink[0] = acc;
    }
    barrier;
    sink[pid()] = pid();
}
`, cfg4())
	if res.Barriers != 1 {
		t.Fatalf("barriers = %d", res.Barriers)
	}
	minC, maxC := res.NodeCycles[0], res.NodeCycles[0]
	for _, c := range res.NodeCycles {
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	if maxC-minC > 5000 {
		t.Errorf("clocks diverge after barrier: min %d max %d", minC, maxC)
	}
}

func TestDeterminism(t *testing.T) {
	src := `
shared float A[64];
shared int turn;
func main() {
    for i = 0 to 63 {
        if i % nprocs() == pid() {
            A[i] = float(i) * 1.5;
        }
    }
    barrier;
    var s float = 0.0;
    for i = 0 to 63 { s += A[i]; }
    lock(0);
    A[0] += s * 0.000001;
    unlock(0);
    barrier;
}
`
	prog := parc.MustParse(src)
	r1, err := Run(prog, cfg4())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(parc.MustParse(src), cfg4())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles {
		t.Errorf("cycles differ: %d vs %d", r1.Cycles, r2.Cycles)
	}
	if r1.Stats != r2.Stats {
		t.Errorf("stats differ:\n%+v\n%+v", r1.Stats, r2.Stats)
	}
}

func TestLockMutualExclusion(t *testing.T) {
	// Concurrent increments under a lock must not lose updates.
	res := runSrc(t, `
shared int counter;
func main() {
    for i = 0 to 24 {
        lock(1);
        counter += 1;
        unlock(1);
    }
}
`, cfg4())
	if got := load(t, res, "counter").AsInt(); got != 100 {
		t.Errorf("counter = %d, want 100", got)
	}
}

func TestUnlockWithoutHoldFails(t *testing.T) {
	prog := parc.MustParse(`func main() { unlock(0); }`)
	if _, err := Run(prog, cfg4()); err == nil || !strings.Contains(err.Error(), "does not hold") {
		t.Errorf("err = %v", err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	// Node 0 never reaches the barrier (holds the lock everyone wants is
	// not expressible without progress, so use a conditional barrier).
	prog := parc.MustParse(`
func main() {
    if pid() != 0 {
        barrier;
    }
    if pid() == 0 {
        lock(0);
        lock(0);
    }
}
`)
	_, err := Run(prog, cfg4())
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("err = %v", err)
	}
}

func TestRuntimeErrorPropagates(t *testing.T) {
	prog := parc.MustParse(`
shared int a[4];
func main() {
    a[pid() * 2] = 1;
}
`)
	_, err := Run(prog, cfg4())
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("err = %v", err)
	}
}

func TestEarlyExitDoesNotHangBarrier(t *testing.T) {
	// Node 3 exits without the barrier; the machine treats finished nodes
	// as arrived so the rest make progress.
	res := runSrc(t, `
shared int out[4];
func main() {
    if pid() == 3 {
        out[3] = 3;
    } else {
        barrier;
        out[pid()] = pid();
    }
}
`, cfg4())
	for i := 0; i < 4; i++ {
		if got := load(t, res, "out", i).AsInt(); got != int64(i) {
			t.Errorf("out[%d] = %d", i, got)
		}
	}
}

func TestTraceModeRecordsMissesAndEpochs(t *testing.T) {
	cfg := cfg4()
	cfg.Mode = ModeTrace
	res := runSrc(t, `
shared float A[32] label "A";
func main() {
    A[pid() * 8] = 1.0;
    barrier;
    A[((pid() + 1) % nprocs()) * 8] += 1.0;
}
`, cfg)
	tr := res.Trace
	if tr == nil {
		t.Fatal("no trace in trace mode")
	}
	if len(tr.Epochs) != 2 {
		t.Fatalf("epochs = %d", len(tr.Epochs))
	}
	if tr.Epochs[0].BarrierPC < 0 {
		t.Error("mid-program epoch has final barrier PC")
	}
	if tr.Epochs[1].BarrierPC != -1 {
		t.Errorf("final epoch barrier PC = %d", tr.Epochs[1].BarrierPC)
	}
	// Epoch 0: each node write-misses its own element.
	wm := 0
	for _, m := range tr.Epochs[0].Misses {
		if m.Kind == trace.WriteMiss {
			wm++
		}
	}
	if wm != 4 {
		t.Errorf("epoch 0 write misses = %d, want 4", wm)
	}
	// Epoch 1: caches were flushed, so the += produces a read miss then a
	// write fault per node (same block, read before write).
	var rm, wf int
	for _, m := range tr.Epochs[1].Misses {
		switch m.Kind {
		case trace.ReadMiss:
			rm++
		case trace.WriteFault:
			wf++
		}
	}
	if rm != 4 || wf != 4 {
		t.Errorf("epoch 1: read misses %d write faults %d, want 4 and 4", rm, wf)
	}
	// Labels carried through.
	if len(tr.Labels) != 1 || tr.Labels[0].Name != "A" {
		t.Errorf("labels = %+v", tr.Labels)
	}
	// VTs are non-decreasing across epochs.
	for n := 0; n < 4; n++ {
		if tr.Epochs[1].VT[n] < tr.Epochs[0].VT[n] {
			t.Errorf("node %d VT decreased", n)
		}
	}
}

func TestDirectivesIgnoredInTraceMode(t *testing.T) {
	cfg := cfg4()
	cfg.Mode = ModeTrace
	res := runSrc(t, `
shared float A[32];
func main() {
    check_out_x A[0:31];
    A[pid()] = 1.0;
    check_in A[0:31];
}
`, cfg)
	if res.Stats.CheckOutX != 0 || res.Stats.CheckIns != 0 {
		t.Errorf("directives executed in trace mode: %+v", res.Stats)
	}
}

func TestCheckOutXDirectiveAvoidsUpgrades(t *testing.T) {
	base := runSrc(t, `
shared float A[32];
func main() {
    var x float;
    x = A[pid() * 8];
    A[pid() * 8] = x + 1.0;
}
`, cfg4())
	if base.Stats.WriteFaults == 0 {
		t.Fatal("baseline has no write faults")
	}
	ann := runSrc(t, `
shared float A[32];
func main() {
    check_out_x A[pid() * 8];
    var x float;
    x = A[pid() * 8];
    A[pid() * 8] = x + 1.0;
}
`, cfg4())
	if ann.Stats.WriteFaults != 0 {
		t.Errorf("annotated run still has %d write faults", ann.Stats.WriteFaults)
	}
}

func TestPrefetchDisableFlag(t *testing.T) {
	src := `
shared float A[32];
func main() {
    prefetch_s A[pid() * 8];
    var acc float = 0.0;
    for i = 0 to 200 { acc += float(i); }
    A[pid() * 8] = acc;
}
`
	on := runSrc(t, src, cfg4())
	cfg := cfg4()
	cfg.DisablePrefetch = true
	off := runSrc(t, src, cfg)
	if on.Stats.PrefetchS == 0 {
		t.Error("prefetch not executed when enabled")
	}
	if off.Stats.PrefetchS != 0 {
		t.Error("prefetch executed when disabled")
	}
}

func TestSharingDegree(t *testing.T) {
	res := runSrc(t, `
shared float A[64];
func main() {
    var buf float[64];
    for i = 0 to 63 { buf[i] = float(i); }     // private stores
    for i = 0 to 63 { A[i] = buf[i] + 1.0; }   // shared stores, private loads
    barrier;
    var s float = 0.0;
    for i = 0 to 63 { s += A[i]; }             // shared loads
    A[pid()] = s;
}
`, cfg4())
	loads, stores := res.SharingDegree()
	if loads <= 0 || loads >= 1 || stores <= 0 || stores >= 1 {
		t.Errorf("sharing degree out of range: loads %g stores %g", loads, stores)
	}
	// Shared loads (64/node) equal private loads (64/node): expect ~0.5.
	if loads < 0.4 || loads > 0.6 {
		t.Errorf("load sharing degree = %g, want ~0.5", loads)
	}
}

func TestOutputOrderingDeterministic(t *testing.T) {
	src := `
func main() {
    print("hello from %d", pid());
}
`
	r1 := runSrc(t, src, cfg4())
	r2 := runSrc(t, src, cfg4())
	if len(r1.Output) != 4 {
		t.Fatalf("output = %v", r1.Output)
	}
	for i := range r1.Output {
		if r1.Output[i] != r2.Output[i] {
			t.Errorf("output order differs at %d: %q vs %q", i, r1.Output[i], r2.Output[i])
		}
	}
}

func TestSingleNode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 1
	res := runSrc(t, `
shared int x;
func main() {
    x = 41;
    barrier;
    x += 1;
}
`, cfg)
	if got := load(t, res, "x").AsInt(); got != 42 {
		t.Errorf("x = %d", got)
	}
	if res.Barriers != 1 {
		t.Errorf("barriers = %d", res.Barriers)
	}
}

func TestQuantumDoesNotChangeSemantics(t *testing.T) {
	src := `
shared float A[128];
func main() {
    for i = 0 to 127 {
        if i % nprocs() == pid() { A[i] = float(i); }
    }
    barrier;
    var s float = 0.0;
    for i = 0 to 127 { s += A[i]; }
    if pid() == 0 { A[0] = s; }
}
`
	want := 0.0
	for i := 1; i < 128; i++ {
		want += float64(i)
	}
	for _, q := range []uint64{1, 100, 10_000} {
		cfg := cfg4()
		cfg.Quantum = q
		res := runSrc(t, src, cfg)
		if got := load(t, res, "A", 0).AsFloat(); got != want {
			t.Errorf("quantum %d: A[0] = %g, want %g", q, got, want)
		}
	}
}
