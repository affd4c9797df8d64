package vet_test

import (
	"fmt"
	"strings"
	"testing"

	"cachier/internal/bench"
	"cachier/internal/interp"
	"cachier/internal/memory"
	"cachier/internal/parc"
	"cachier/internal/parcgen"
	"cachier/internal/sim"
	"cachier/internal/vet"
)

// opDirective marks a recorded Directive call; no event source makes one,
// so a directive in a VM's calls is always a difference.
const opDirective sim.EventOp = 255

// recorder is an interp.Machine that writes down every call, in order, as
// the sim.Event an event lane would make that call from.
type recorder struct{ events []sim.Event }

func (r *recorder) Access(_ int, write bool, addr uint64, pc int) {
	r.events = append(r.events, sim.Event{Op: sim.EvAccess, Write: write, Addr: addr, PC: pc})
}
func (r *recorder) Directive(_ int, _ parc.AnnKind, _ []interp.AddrRange, pc int) {
	r.events = append(r.events, sim.Event{Op: opDirective, PC: pc})
}
func (r *recorder) Barrier(_ int, pc int) {
	r.events = append(r.events, sim.Event{Op: sim.EvBarrier, PC: pc})
}
func (r *recorder) Lock(_ int, id int64, pc int) {
	r.events = append(r.events, sim.Event{Op: sim.EvLock, Lock: id, PC: pc})
}
func (r *recorder) Unlock(_ int, id int64, pc int) {
	r.events = append(r.events, sim.Event{Op: sim.EvUnlock, Lock: id, PC: pc})
}
func (r *recorder) Work(_ int, cycles uint64) {
	r.events = append(r.events, sim.Event{Op: sim.EvWork, Cycles: cycles})
}
func (r *recorder) Print(int, string) { r.events = append(r.events, sim.Event{Op: sim.EvPrint}) }

// vmEvents runs node's instance of prog on the production VM, alone, and
// returns the Machine calls it makes. An exact summary promises that no
// branch, bound, lock id or subscript depends on shared data, so running
// the node alone on a fresh store makes the calls a simulation makes.
func vmEvents(t *testing.T, prog *parc.Program, layout *memory.Layout, node, nprocs int) []sim.Event {
	t.Helper()
	rec := &recorder{}
	if err := interp.NewContext(prog, interp.NewStoreFor(layout), rec, node, nprocs).Run(); err != nil {
		t.Fatalf("node %d: %v", node, err)
	}
	return rec.events
}

// inferredEvents reads node's inferred stream through its cursor, the
// event source a replay reads. The Machine's Work and Print take no
// statement, so those events' PCs are not compared.
func inferredEvents(t *testing.T, layout *memory.Layout, sum *vet.Summary, node int) []sim.Event {
	t.Helper()
	var out []sim.Event
	c := sum.Cursor(node)
	for {
		ev, err := c.Next(layout)
		if err != nil {
			t.Fatal(err)
		}
		if ev == nil {
			return out
		}
		e := *ev
		if e.Op == sim.EvWork || e.Op == sim.EvPrint {
			e.PC = 0
		}
		out = append(out, e)
	}
}

// checkStreams holds an exact summary of prog to its promise: every node's
// inferred stream is the VM's call sequence on that node. It reports
// whether the summary was exact (an inexact one promises nothing).
func checkStreams(t *testing.T, prog *parc.Program, nprocs int) bool {
	t.Helper()
	sum, err := vet.Summarize(prog, vet.Options{Nprocs: nprocs})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Exact {
		return false
	}
	layout, err := memory.New(prog, 32)
	if err != nil {
		t.Fatal(err)
	}
	for node := 0; node < nprocs; node++ {
		got := inferredEvents(t, layout, sum, node)
		want := vmEvents(t, prog, layout, node, nprocs)
		if i := firstDifference(got, want); i >= 0 {
			t.Fatalf("node %d: inferred stream departs from the VM's calls at call %d:\ninferred %+v\nVM       %+v",
				node, i, window(got, i), window(want, i))
		}
	}
	return true
}

// firstDifference returns the index of the first call where a and b
// differ, or -1 if they are equal.
func firstDifference(a, b []sim.Event) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// window shows the calls around i.
func window(s []sim.Event, i int) []sim.Event { return s[max(i-2, 0):min(i+3, len(s))] }

// TestInferredStreamsMatchVM: where vet.Summarize says Exact, the sim.Events
// a replay reads off each node's Cursor are the VM's Machine calls
// (Summary.Exact's promise), call for call: the same Work amounts, the same
// accesses (address, write flag, statement), locks, unlocks, prints and
// barriers, in the same order. That is what lets the static replay
// reproduce a simulated trace. It checks every exact corpus
// seed, the exact Figure 6 ports at training size, and a program that makes
// a user call with 511 units of work pending: the VM's call overhead (2)
// then flushes 513 cycles at once, where a drain in 512-cycle chunks would
// report 512 and carry 1.
func TestInferredStreamsMatchVM(t *testing.T) {
	t.Run("corpus", func(t *testing.T) {
		exact := 0
		for seed := int64(0); seed < 200; seed++ {
			if checkStreams(t, parc.MustParse(parcgen.Generate(seed)), parcgen.DefaultConfig().Nodes) {
				exact++
			}
		}
		if exact < 199 {
			t.Errorf("%d exact corpus seeds, want 199", exact)
		}
	})
	for _, b := range []*bench.Benchmark{bench.Ocean(), bench.MatMul()} {
		t.Run(b.Name, func(t *testing.T) {
			if !checkStreams(t, parc.MustParse(b.Source(b.Train)), b.Nodes) {
				t.Fatal("summary is not exact")
			}
		})
	}
	for _, copies := range []int{509, 1021} {
		t.Run(fmt.Sprintf("call at the flush limit, %d stores", copies), func(t *testing.T) {
			src := "shared int A[64];\nfunc f() { }\nfunc main() {\n    var x int = 0;\n" +
				strings.Repeat("    x = 1;\n", copies) + "    f();\n    A[pid()] = x;\n}\n"
			if !checkStreams(t, parc.MustParse(src), 1) {
				t.Fatal("summary is not exact")
			}
		})
	}
}
