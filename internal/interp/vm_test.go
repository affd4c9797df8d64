package interp

import (
	"reflect"
	"testing"

	"cachier/internal/memory"
	"cachier/internal/parc"
	"cachier/internal/parcgen"
)

// execAll runs every node of prog to completion, sequentially, against one
// shared store, recording every Machine callback. With tree set it forces
// the tree-walking reference implementation; otherwise the bytecode VM
// runs. Node errors are collected rather than fatal so the two engines can
// be compared on failing programs too.
func execAll(t *testing.T, src string, nprocs int, tree bool) (*mockMachine, *Store, *memory.Layout, []string) {
	t.Helper()
	prog, err := parc.Parse(src)
	if err != nil {
		t.Skipf("parse: %v", err)
	}
	if err := parc.Check(prog); err != nil {
		t.Skipf("check: %v", err)
	}
	layout, err := memory.New(prog, 32)
	if err != nil {
		t.Skipf("layout: %v", err)
	}
	store := NewStoreFor(layout)
	m := &mockMachine{}
	var errs []string
	for node := 0; node < nprocs; node++ {
		ctx := NewContext(prog, store, m, node, nprocs)
		run := ctx.Run
		if tree {
			run = ctx.runTree
		}
		if err := run(); err != nil {
			errs = append(errs, err.Error())
		}
	}
	return m, store, layout, errs
}

// diffEngines compares every observable of a VM run against a tree-walker
// run of the same source: the full Machine event record (accesses,
// directives, barriers, locks, work, prints), any runtime errors, and the
// final shared store word-for-word.
func diffEngines(t *testing.T, src string, nprocs int) {
	t.Helper()
	vmM, vmS, layout, vmErrs := execAll(t, src, nprocs, false)
	twM, twS, _, twErrs := execAll(t, src, nprocs, true)

	if !reflect.DeepEqual(vmErrs, twErrs) {
		t.Fatalf("runtime errors diverge:\nVM:   %q\ntree: %q\n%s", vmErrs, twErrs, src)
	}
	if !reflect.DeepEqual(vmM.accesses, twM.accesses) {
		t.Fatalf("access streams diverge (VM %d events, tree %d)\n%s",
			len(vmM.accesses), len(twM.accesses), src)
	}
	if !reflect.DeepEqual(vmM.directives, twM.directives) {
		t.Fatalf("directive streams diverge:\nVM:   %+v\ntree: %+v\n%s",
			vmM.directives, twM.directives, src)
	}
	if !reflect.DeepEqual(vmM.barriers, twM.barriers) ||
		!reflect.DeepEqual(vmM.locks, twM.locks) ||
		!reflect.DeepEqual(vmM.unlocks, twM.unlocks) {
		t.Fatalf("sync streams diverge\n%s", src)
	}
	if vmM.work != twM.work {
		t.Fatalf("work charged diverges: VM %d, tree %d\n%s", vmM.work, twM.work, src)
	}
	if !reflect.DeepEqual(vmM.works, twM.works) {
		t.Fatalf("work flushes diverge (VM %d flushes, tree %d)\n%s", len(vmM.works), len(twM.works), src)
	}
	if !reflect.DeepEqual(vmM.printed, twM.printed) {
		t.Fatalf("print output diverges:\nVM:   %q\ntree: %q\n%s", vmM.printed, twM.printed, src)
	}
	for addr := uint64(0); addr < layout.TotalBytes(); addr += parc.ElemSize {
		if vmS.Load(addr) != twS.Load(addr) {
			t.Fatalf("store diverges at address %#x: VM %#x, tree %#x\n%s",
				addr, vmS.Load(addr), twS.Load(addr), src)
		}
	}
}

// FuzzVMEquivalence pins the bytecode VM to the tree-walking reference
// implementation over parcgen's program space: same Machine event stream,
// same errors, same final memory, on every generated program. This is the
// interp-level half of the differential safety net; the conformance
// harness adds the machine-level half (identical cycle counts and protocol
// stats under the full scheduler).
func FuzzVMEquivalence(f *testing.F) {
	for seed := int64(0); seed < 25; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		diffEngines(t, parcgen.Generate(seed), 4)
	})
}

// TestVMEquivalenceCorpus is the deterministic always-on slice of the fuzz
// target: 200 seeds through both engines on every `go test`.
func TestVMEquivalenceCorpus(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		diffEngines(t, parcgen.Generate(seed), 4)
	}
}

// TestSubscriptWalkMatchesTreeWalker aims at the lane's subscript walk
// (memWalk): the loops carry pending work across the flush limit at every
// phase of a two-subscript access, shared and private, plain and compound,
// and the last program fails its second subscript's check with charges
// pending.
func TestSubscriptWalkMatchesTreeWalker(t *testing.T) {
	for _, src := range []string{`
shared int a[8][8];
func main() {
    var acc int = 0;
    for r = 0 to 40 {
        for i = 0 to 7 {
            for j = 0 to 7 {
                a[i][j] += r;
                acc += a[j][i] + a[i][3];
            }
        }
    }
    a[0][0] = acc;
}`, `
shared int out[4];
func main() {
    var p int[6][5];
    var acc int = 0;
    for r = 0 to 60 {
        for i = 0 to 5 {
            for j = 0 to 4 {
                p[i][j] += i * j;
                acc += p[i][(j + r) % 5];
            }
        }
    }
    out[pid()] = acc;
}`, `
shared int a[8][8];
func main() {
    var acc int = 0;
    for i = 0 to 7 {
        for j = 0 to 8 {
            acc += a[i][j];
        }
    }
    a[0][0] = acc;
}`} {
		diffEngines(t, src, 2)
	}
}

// interpBenchSrc is scalar- and loop-heavy on purpose: private work
// dominates, so the benchmark measures the interpreter engine rather than
// the mock machine's event recording.
const interpBenchSrc = `
shared float out[4];
func kernel(n int) float {
    var acc float = 0.0;
    for i = 1 to n {
        var x float = float(i);
        acc += x * x / (x + 1.0);
        if i % 3 == 0 { acc -= 1.0; }
    }
    return acc;
}
func main() {
    var t float = 0.0;
    for r = 0 to 49 { t += kernel(200); }
    out[pid()] = t;
}
`

// BenchmarkInterp compares the two execution engines on the same
// compute-bound program (see EXPERIMENTS.md, "Simulator performance"). Beside
// ns/op it reports ns/instr, host time per dispatched op (CountOps): a
// bytecode instruction on vm, a statement on tree.
func BenchmarkInterp(b *testing.B) {
	prog := parc.MustParse(interpBenchSrc)
	if err := parc.Check(prog); err != nil {
		b.Fatal(err)
	}
	layout, err := memory.New(prog, 32)
	if err != nil {
		b.Fatal(err)
	}
	for _, eng := range []struct {
		name string
		tree bool
	}{{"vm", false}, {"tree", true}} {
		b.Run(eng.name, func(b *testing.B) {
			var ops uint64
			for i := 0; i < b.N; i++ {
				store := NewStoreFor(layout)
				ctx := NewContext(prog, store, &mockMachine{}, 0, 1)
				ctx.CountOps(true)
				run := ctx.Run
				if eng.tree {
					run = ctx.runTree
				}
				if err := run(); err != nil {
					b.Fatal(err)
				}
				ops += ctx.OpsDispatched()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops), "ns/instr")
		})
	}
}
