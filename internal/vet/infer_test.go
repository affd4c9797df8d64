package vet

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"cachier/internal/memory"
	"cachier/internal/parc"
	"cachier/internal/sim"
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

// access is one element access of a node's stream, its address resolved
// back to the variable and subscripts.
type access struct {
	name  string
	write bool
	stmt  int
	index []int
}

// events reads node's stream to its end on prog's layout and calls f with
// each event, an access's resolved.
func events(t *testing.T, prog *parc.Program, sum *Summary, node int, f func(*sim.Event, access)) {
	t.Helper()
	layout, err := memory.New(prog, 32)
	if err != nil {
		t.Fatal(err)
	}
	c := sum.Cursor(node)
	for {
		ev, err := c.Next(layout)
		if err != nil {
			t.Fatal(err)
		}
		if ev == nil {
			return
		}
		var acc access
		if ev.Op == sim.EvAccess {
			r, ix, ok := layout.Resolve(ev.Addr)
			if !ok {
				t.Fatalf("node %d: access of %#x outside every region", node, ev.Addr)
			}
			acc = access{r.Name, ev.Write, ev.PC, ix}
		}
		f(ev, acc)
	}
}

// epochs reads node's stream to its end and returns its shared accesses
// split at its barriers: one list per epoch, the last ending at program end.
func epochs(t *testing.T, prog *parc.Program, sum *Summary, node int) [][]access {
	eps := [][]access{nil}
	events(t, prog, sum, node, func(ev *sim.Event, acc access) {
		switch ev.Op {
		case sim.EvAccess:
			last := len(eps) - 1
			eps[last] = append(eps[last], acc)
		case sim.EvBarrier:
			eps = append(eps, nil)
		}
	})
	return eps
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
	sum, err := Summarize(prog, Options{Nprocs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Exact {
		t.Fatalf("partition program should infer exactly; notes: %v", sum.Notes)
	}
	if err := sum.CheckBarrierStructure(); err != nil {
		t.Fatal(err)
	}
	for node := range 4 {
		// Two barriers and the trailing program-end interval.
		eps := epochs(t, prog, sum, node)
		if len(eps) != 3 {
			t.Fatalf("node %d: %d epochs, want 3", node, len(eps))
		}
		lo := node * 4
		for ei, wantWrite := range []bool{true, false} {
			if len(eps[ei]) != 4 {
				t.Fatalf("node %d epoch %d: %d accesses, want 4", node, ei, len(eps[ei]))
			}
			for k, acc := range eps[ei] {
				if acc.name != "A" || acc.write != wantWrite {
					t.Errorf("node %d epoch %d access %d = %+v", node, ei, k, acc)
				}
				if len(acc.index) != 1 || acc.index[0] != lo+k {
					t.Errorf("node %d epoch %d access %d index = %v, want [%d]", node, ei, k, acc.index, lo+k)
				}
				if acc.stmt == 0 {
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
	sum, err := Summarize(prog, Options{Nprocs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Exact {
		t.Fatalf("counted while should infer exactly; notes: %v", sum.Notes)
	}
	eps0, eps1 := epochs(t, prog, sum, 0), epochs(t, prog, sum, 1)
	if got := len(eps0); got != 4 {
		t.Fatalf("3 barrier crossings should give 4 epochs, got %d", got)
	}
	// Node 0 writes x once per epoch 0..2; node 1 never touches it.
	for e := 0; e < 3; e++ {
		if n := len(eps0[e]); n != 1 {
			t.Errorf("node 0 epoch %d: %d accesses, want 1", e, n)
		}
		if n := len(eps1[e]); n != 0 {
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
	sum, err := Summarize(prog, Options{Nprocs: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Node 1: pid()==0 folds false, so the VM never reads flag.
	if n := len(epochs(t, prog, sum, 1)[0]); n != 0 {
		t.Errorf("node 1 should not touch flag under short-circuit, got %d accesses", n)
	}
	// Node 0 reads flag (guard), and the guard is data-dependent, so the
	// summary must admit inexactness rather than claim the VM's stream.
	if len(epochs(t, prog, sum, 0)[0]) == 0 {
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
	sum, err := Summarize(prog, Options{Nprocs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Exact {
		t.Fatal("input-dependent subscript should be inexact")
	}
	// The write widens to every element of A, clamped to its bounds and
	// walked in ascending order.
	var written []int
	for _, acc := range epochs(t, prog, sum, 0)[0] {
		if acc.write {
			written = append(written, acc.index[0])
		}
	}
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; !slices.Equal(written, want) {
		t.Errorf("widened write touches %v, want %v", written, want)
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

// TestOverflowingTripCountWidens: a loop whose trip count leaves int64 is
// widened, by the race detector and by inference alike, rather than
// enumerated from a wrapped count until the analysis budget runs out.
func TestOverflowingTripCountWidens(t *testing.T) {
	prog := inferProg(t, `
shared int x label "x";
func main() {
    for i = -9223372036854775807 to 9223372036854775807 {
        if pid() == 0 {
            x = i;
        }
    }
    barrier;
}`)
	for _, f := range Analyze(prog, Options{Nprocs: 2}).Findings {
		if strings.Contains(f.Msg, "budget exhausted") {
			t.Errorf("Analyze: %s", f)
		}
	}
	sum, err := Summarize(prog, Options{Nprocs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Exact {
		t.Error("an overflowing trip count should make the summary inexact")
	}
	trip := false
	for _, n := range sum.Notes {
		if strings.Contains(n, "budget exhausted") {
			t.Errorf("Summarize ran out of fuel: %v", sum.Notes)
		}
		trip = trip || strings.Contains(n, "trip count")
	}
	if !trip {
		t.Errorf("notes should name the trip count: %v", sum.Notes)
	}
}

// TestEdgeLoopsEnumerate: a loop within a step of either int64 edge, in
// either direction, makes exactly its trip count (two each here, eight in
// all) rather than wrapping its counter; the race detector and inference
// both finish, and inference is exact, with the write after the loops at
// A[8].
func TestEdgeLoopsEnumerate(t *testing.T) {
	prog := inferProg(t, `
shared int A[10] label "A";
func main() {
    var c int = 0;
    for i = 9223372036854775806 to 9223372036854775807 { c = c + 1; }
    for i = 9223372036854775807 to 9223372036854775806 step -1 { c = c + 1; }
    for i = -9223372036854775807 to -9223372036854775807 - 1 step -1 { c = c + 1; }
    for i = -9223372036854775807 - 1 to -9223372036854775807 { c = c + 1; }
    if pid() == 0 {
        A[c] = 1;
    }
    barrier;
}`)
	for _, f := range Analyze(prog, Options{Nprocs: 2}).Findings {
		if strings.Contains(f.Msg, "budget exhausted") {
			t.Errorf("Analyze: %s", f)
		}
	}
	sum, err := Summarize(prog, Options{Nprocs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Exact {
		t.Fatalf("edge loops should infer exactly; notes: %v", sum.Notes)
	}
	var written []int
	for _, acc := range epochs(t, prog, sum, 0)[0] {
		if acc.write {
			written = append(written, acc.index[0])
		}
	}
	if want := []int{8}; !slices.Equal(written, want) {
		t.Errorf("the write after the loops touches A%v, want A%v", written, want)
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
	if _, err := Summarize(prog, Options{Nprocs: 4}); err != nil {
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

// TestCursorOdometer covers the cursor's walk of an access's element sets
// (strided, several dimensions, empty, scalar, a reference with no shared
// declaration), the element checks Summarize makes, and
// CheckBarrierStructure's messages, on hand-built streams.
func TestCursorOdometer(t *testing.T) {
	prog := inferProg(t, "shared int G[3][4];\nshared int s;\nfunc main() { }")
	grid, scalar := prog.Shareds[0], prog.Shareds[1]
	sum := &Summary{nodes: []nodeStream{{events: []event{
		{kind: evAccess, decl: grid, encStmt: 5, dims: []si{{0, 2, 2}, {1, 3, 1}}},
		{kind: evAccess, decl: grid, dims: []si{siConst(1), siEmpty}},
		{kind: evAnn, decl: grid},
		{kind: evAccess},
		{kind: evAccess, decl: scalar, write: true, encStmt: 6},
		{kind: evBarrier, stmtID: 7},
	}}}}
	var got []string
	events(t, prog, sum, 0, func(ev *sim.Event, acc access) {
		if ev.Op == sim.EvAccess {
			got = append(got, fmt.Sprintf("%s%v@%d/%v", acc.name, acc.index, acc.stmt, acc.write))
		} else {
			got = append(got, fmt.Sprintf("op%d@%d", ev.Op, ev.PC))
		}
	})
	want := []string{
		"G[0 1]@5/false", "G[0 2]@5/false", "G[0 3]@5/false",
		"G[2 1]@5/false", "G[2 2]@5/false", "G[2 3]@5/false",
		"s[]@6/true", fmt.Sprintf("op%d@7", sim.EvBarrier),
	}
	if !slices.Equal(got, want) {
		t.Errorf("cursor steps\n got %v\nwant %v", got, want)
	}

	for _, c := range []struct {
		decl *parc.SharedDecl
		dims []si
		want string
	}{
		{grid, []si{{0, 2, 1}, {0, 3, 1}}, ""},
		{grid, []si{siEmpty, siTop}, ""},
		{grid, []si{siConst(0), siTop}, "staticanno: subscript set {Lo:-1152921504606846976 Hi:1152921504606846976 Stride:1} of G not enumerable"},
		{grid, []si{{0, 100, 1}, siConst(0)}, "staticanno: subscript set {Lo:0 Hi:100 Stride:1} of G not enumerable"},
		{grid, []si{siConst(0)}, "memory: G has rank 2, got 1 indices"},
		{scalar, []si{siConst(0)}, "memory: s has rank 0, got 1 indices"},
		{grid, nil, "memory: G has rank 2, got 0 indices"},
		{grid, []si{siConst(1), {-1, 1, 1}}, "memory: index -1 out of range [0,4) in dimension 1 of G"},
		{grid, []si{{1, 3, 2}, {2, 4, 2}}, "memory: index 4 out of range [0,4) in dimension 1 of G"},
		{grid, []si{{1, 3, 1}, siConst(2)}, "memory: index 3 out of range [0,3) in dimension 0 of G"},
	} {
		err := checkElements(&event{kind: evAccess, decl: c.decl, dims: c.dims})
		if got := fmt.Sprint(err); (err == nil) != (c.want == "") || err != nil && got != c.want {
			t.Errorf("checkElements(%s %v) = %v, want %q", c.decl.Name, c.dims, err, c.want)
		}
	}

	for _, c := range []struct {
		barriers [2][]int32
		want     string
	}{
		{[2][]int32{{3, 9}, {3, 9}}, ""},
		{[2][]int32{{3, 9}, {3}}, "vet: node 0 infers 3 epoch(s) but node 1 infers 2; barrier arrival is node-dependent"},
		{[2][]int32{{3, 9}, {3, 4}}, "vet: epoch 1 ends at barrier 9 on node 0 but at barrier 4 on node 1"},
	} {
		sum := &Summary{nodes: []nodeStream{{barriers: c.barriers[0]}, {barriers: c.barriers[1]}}}
		if err := sum.CheckBarrierStructure(); fmt.Sprint(err) != c.want && !(err == nil && c.want == "") {
			t.Errorf("CheckBarrierStructure(%v) = %v, want %q", c.barriers, err, c.want)
		}
	}
}
