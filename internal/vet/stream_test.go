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
	"cachier/internal/vet"
)

// step is one Machine call, in a form both sides can produce: the VM's
// calls as a recorder sees them, and an inferred stream's events.
type step struct {
	op    string // work, access, lock, unlock, print, barrier, directive
	n     uint64 // work cycles, or the lock id
	addr  uint64
	write bool
	pc    int
}

func (s step) String() string {
	switch s.op {
	case "work":
		return fmt.Sprintf("Work(%d)", s.n)
	case "access":
		return fmt.Sprintf("Access(%#x, write=%v, pc %d)", s.addr, s.write, s.pc)
	case "lock", "unlock":
		return fmt.Sprintf("%s(%d, pc %d)", s.op, s.n, s.pc)
	}
	return fmt.Sprintf("%s(pc %d)", s.op, s.pc)
}

// recorder is an interp.Machine that writes down every call, in order.
type recorder struct{ steps []step }

func (r *recorder) Access(_ int, write bool, addr uint64, pc int) {
	r.steps = append(r.steps, step{op: "access", addr: addr, write: write, pc: pc})
}
func (r *recorder) Directive(_ int, _ parc.AnnKind, _ []interp.AddrRange, pc int) {
	r.steps = append(r.steps, step{op: "directive", pc: pc})
}
func (r *recorder) Barrier(_ int, pc int) { r.steps = append(r.steps, step{op: "barrier", pc: pc}) }
func (r *recorder) Lock(_ int, id int64, pc int) {
	r.steps = append(r.steps, step{op: "lock", n: uint64(id), pc: pc})
}
func (r *recorder) Unlock(_ int, id int64, pc int) {
	r.steps = append(r.steps, step{op: "unlock", n: uint64(id), pc: pc})
}
func (r *recorder) Work(_ int, cycles uint64) { r.steps = append(r.steps, step{op: "work", n: cycles}) }
func (r *recorder) Print(int, string)         { r.steps = append(r.steps, step{op: "print"}) }

// vmSteps runs node's instance of prog on the production VM, alone, and
// returns the Machine calls it makes. An exact summary promises that no
// branch, bound, lock id or subscript depends on shared data, so running
// the node alone on a fresh store makes the calls a simulation makes.
func vmSteps(t *testing.T, prog *parc.Program, layout *memory.Layout, node, nprocs int) []step {
	t.Helper()
	rec := &recorder{}
	if err := interp.NewContext(prog, interp.NewStoreFor(layout), rec, node, nprocs).Run(); err != nil {
		t.Fatalf("node %d: %v", node, err)
	}
	return rec.steps
}

// inferredSteps reads node's inferred stream as Machine calls.
func inferredSteps(t *testing.T, layout *memory.Layout, sum *vet.Summary, node int) []step {
	t.Helper()
	var out []step
	c := sum.Cursor(node)
	for s := c.Next(); s != nil; s = c.Next() {
		switch s.Op {
		case vet.OpWork:
			out = append(out, step{op: "work", n: s.Work})
		case vet.OpAccess:
			addr, err := layout.Regions[s.Decl.Index].AddrOf(s.Index...)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, step{op: "access", addr: addr, write: s.Write, pc: s.Stmt})
		case vet.OpLock:
			out = append(out, step{op: "lock", n: uint64(s.Lock), pc: s.Stmt})
		case vet.OpUnlock:
			out = append(out, step{op: "unlock", n: uint64(s.Lock), pc: s.Stmt})
		case vet.OpPrint:
			out = append(out, step{op: "print"})
		case vet.OpBarrier:
			out = append(out, step{op: "barrier", pc: s.Stmt})
		}
	}
	return out
}

// checkStreams holds an exact summary of prog to its promise: every node's
// inferred stream is the VM's call sequence on that node. It reports
// whether the summary was exact (an inexact one promises nothing).
func checkStreams(t *testing.T, prog *parc.Program, nprocs int) bool {
	t.Helper()
	sum, err := vet.Summarize(prog, vet.InferOptions{Nprocs: nprocs})
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
		got := inferredSteps(t, layout, sum, node)
		want := vmSteps(t, prog, layout, node, nprocs)
		if i := firstDifference(got, want); i >= 0 {
			t.Fatalf("node %d: inferred stream departs from the VM's calls at call %d:\ninferred %v\nVM       %v",
				node, i, window(got, i), window(want, i))
		}
	}
	return true
}

// firstDifference returns the index of the first call where a and b
// differ, or -1 if they are equal.
func firstDifference(a, b []step) int {
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
func window(s []step, i int) []step { return s[max(i-2, 0):min(i+3, len(s))] }

// TestInferredStreamsMatchVM: where vet.Summarize says Exact, the access
// streams are the VM's (Summary.Exact's promise), call for call: the same
// Work amounts, the same accesses (address, write flag, statement), locks,
// unlocks, prints and barriers, in the same order. That is what lets the
// static replay reproduce a simulated trace. It checks every exact corpus
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
