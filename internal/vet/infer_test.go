package vet

import (
	"strings"
	"testing"

	"cachier/internal/parc"
)

func inferProg(t *testing.T, src string) *parc.Program {
	t.Helper()
	prog, err := parc.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := parc.Check(prog); err != nil {
		t.Fatal(err)
	}
	return prog
}

// accesses is an epoch's shared accesses, in stream order.
func accesses(ep InferEpoch) []InferAccess {
	var out []InferAccess
	for _, ev := range ep.Events {
		if ev.Op == OpAccess {
			out = append(out, ev.Access)
		}
	}
	return out
}

// TestSummarizeExactPartition pins the core contract: a concretely
// enumerable SPMD partition program yields an Exact summary whose per-node
// access streams are single-element, in program order, with the right
// epoch structure.
func TestSummarizeExactPartition(t *testing.T) {
	prog := inferProg(t, `
const N = 16;
shared float A[N] label "A";
func main() {
    var chunk int = N / nprocs();
    var lo int = pid() * chunk;
    for i = lo to lo + chunk - 1 {
        A[i] = float(i);
    }
    barrier;
    var s float = 0.0;
    for i = lo to lo + chunk - 1 {
        s = s + A[i];
    }
    barrier;
}`)
	sum, err := Summarize(prog, InferOptions{Nprocs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Exact {
		t.Fatalf("partition program should infer exactly; notes: %v", sum.Notes)
	}
	if err := sum.CheckBarrierStructure(); err != nil {
		t.Fatal(err)
	}
	for _, ns := range sum.Nodes {
		// Two barriers and the trailing program-end interval.
		if len(ns.Epochs) != 3 {
			t.Fatalf("node %d: %d epochs, want 3", ns.Node, len(ns.Epochs))
		}
		if ns.Epochs[2].BarrierID != -1 {
			t.Errorf("final epoch should end at -1, got %d", ns.Epochs[2].BarrierID)
		}
		lo := int64(ns.Node * 4)
		for ei, wantWrite := range []bool{true, false} {
			ep := ns.Epochs[ei]
			if len(accesses(ep)) != 4 {
				t.Fatalf("node %d epoch %d: %d accesses, want 4", ns.Node, ei, len(accesses(ep)))
			}
			for k, acc := range accesses(ep) {
				if acc.Var != "A" || acc.Write != wantWrite || acc.Variant {
					t.Errorf("node %d epoch %d access %d = %+v", ns.Node, ei, k, acc)
				}
				if c, ok := acc.Dims[0].Const(); !ok || c != lo+int64(k) {
					t.Errorf("node %d epoch %d access %d index = %+v, want %d",
						ns.Node, ei, k, acc.Dims[0], lo+int64(k))
				}
				if acc.Stmt == 0 {
					t.Errorf("access carries no statement ID: %+v", acc)
				}
			}
		}
	}
}

// TestSummarizeWhileEnumerated: a counted while loop is enumerated exactly,
// including its per-iteration epoch advance when it contains a barrier.
func TestSummarizeWhileEnumerated(t *testing.T) {
	prog := inferProg(t, `
shared int x label "x";
func main() {
    var w int = 0;
    while w < 3 {
        if pid() == 0 {
            x = w;
        }
        barrier;
        w = w + 1;
    }
}`)
	sum, err := Summarize(prog, InferOptions{Nprocs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Exact {
		t.Fatalf("counted while should infer exactly; notes: %v", sum.Notes)
	}
	if got := len(sum.Nodes[0].Epochs); got != 4 {
		t.Fatalf("3 barrier crossings should give 4 epochs, got %d", got)
	}
	// Node 0 writes x once per epoch 0..2; node 1 never touches it.
	for e := 0; e < 3; e++ {
		if n := len(accesses(sum.Nodes[0].Epochs[e])); n != 1 {
			t.Errorf("node 0 epoch %d: %d accesses, want 1", e, n)
		}
		if n := len(accesses(sum.Nodes[1].Epochs[e])); n != 0 {
			t.Errorf("node 1 epoch %d: %d accesses, want 0", e, n)
		}
	}
}

// TestSummarizeShortCircuit: inference must mirror the VM's short-circuit
// evaluation — a concretely false left operand suppresses the right-hand
// side's shared reads, which the race detector would have recorded.
func TestSummarizeShortCircuit(t *testing.T) {
	prog := inferProg(t, `
shared int flag label "flag";
func main() {
    if pid() == 0 && flag > 0 {
        flag = 1;
    }
    barrier;
}`)
	sum, err := Summarize(prog, InferOptions{Nprocs: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Node 1: pid()==0 folds false, so the VM never reads flag.
	if n := len(accesses(sum.Nodes[1].Epochs[0])); n != 0 {
		t.Errorf("node 1 should not touch flag under short-circuit, got %d accesses", n)
	}
	// Node 0 reads flag (guard), and the guard is data-dependent, so the
	// summary must admit inexactness rather than claim the VM's stream.
	if len(accesses(sum.Nodes[0].Epochs[0])) == 0 {
		t.Error("node 0 should record the guard read of flag")
	}
	if sum.Exact {
		t.Error("data-dependent guard should mark the summary inexact")
	}
}

// TestSummarizeInexactSubscript: an input-dependent subscript widens to an
// interval and flags the summary, rather than failing.
func TestSummarizeInexactSubscript(t *testing.T) {
	prog := inferProg(t, `
const N = 8;
shared float A[N] label "A";
shared int idx label "idx";
func main() {
    var j int = idx;
    A[j] = 1.0;
    barrier;
}`)
	sum, err := Summarize(prog, InferOptions{Nprocs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Exact {
		t.Fatal("input-dependent subscript should be inexact")
	}
	acc := accesses(sum.Nodes[0].Epochs[0])
	var write *InferAccess
	for i := range acc {
		if acc[i].Write {
			write = &acc[i]
		}
	}
	if write == nil {
		t.Fatal("missing write access")
	}
	if !write.Variant {
		t.Error("write should be marked variant")
	}
	els, ok := write.Dims[0].Enumerate(16)
	if !ok || len(els) == 0 || els[0] < 0 || els[len(els)-1] > 7 {
		t.Errorf("widened subscript should clamp to array bounds, got %v (ok=%v)", els, ok)
	}
	found := false
	for _, n := range sum.Notes {
		if strings.Contains(n, "subscript") {
			found = true
		}
	}
	if !found {
		t.Errorf("notes should name the widened subscript: %v", sum.Notes)
	}
}

// TestSummarizeDoesNotPerturbAnalyze: running inference must leave the
// regular analysis untouched — same findings before and after.
func TestSummarizeDoesNotPerturbAnalyze(t *testing.T) {
	src := `
shared float total label "t";
func main() {
    total = total + 1.0;
    barrier;
}`
	prog := inferProg(t, src)
	before := Analyze(prog, Options{Nprocs: 4}).String()
	if _, err := Summarize(prog, InferOptions{Nprocs: 4}); err != nil {
		t.Fatal(err)
	}
	after := Analyze(prog, Options{Nprocs: 4}).String()
	if before != after {
		t.Errorf("Summarize changed Analyze's report:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if len(Analyze(prog, Options{Nprocs: 4}).Races()) == 0 {
		t.Error("the racy fixture should still race")
	}
}

// TestIndexSetEnumerate covers the exported set type's edges.
func TestIndexSetEnumerate(t *testing.T) {
	if els, ok := (IndexSet{Lo: 2, Hi: 10, Stride: 4}).Enumerate(8); !ok || len(els) != 3 || els[2] != 10 {
		t.Errorf("strided enumerate = %v, %v", els, ok)
	}
	if _, ok := (IndexSet{Lo: negInf, Hi: 3, Stride: 1}).Enumerate(8); ok {
		t.Error("unbounded set must not enumerate")
	}
	if _, ok := (IndexSet{Lo: 0, Hi: 100, Stride: 1}).Enumerate(8); ok {
		t.Error("oversized set must not enumerate")
	}
	if els, ok := (IndexSet{Lo: 1, Hi: 0}).Enumerate(8); !ok || len(els) != 0 {
		t.Error("empty set enumerates to nothing")
	}
}
