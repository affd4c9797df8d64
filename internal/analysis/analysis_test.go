package analysis

import (
	"testing"

	"cachier/internal/parc"
)

const src = `
const N = 8;
shared float A[N][N] label "A";
shared float B[N][N];
shared int flag;

func helper(k int) {
    A[k][0] = 1.0;
}

func main() {
    for i = 0 to N - 1 {
        for j = 0 to N - 1 {
            A[i][j] = B[i][j] + A[i][j + 1];
        }
        barrier;
    }
    while flag < 3 {
        flag += 1;
    }
    helper(2);
}
`

func analyzed(t *testing.T) *Info {
	t.Helper()
	return Analyze(parc.MustParse(src))
}

func findStmt[T parc.Stmt](prog *parc.Program, pick func(T) bool) T {
	var out T
	found := false
	parc.WalkProgram(prog, func(s parc.Stmt) bool {
		if n, ok := s.(T); ok && !found && pick(n) {
			out = n
			found = true
		}
		return true
	})
	if !found {
		panic("statement not found")
	}
	return out
}

// mainAssign matches the A[i][j] = B[i][j] + A[i][j+1] statement in main
// (helper also assigns to A, so match on the RHS mentioning B).
func mainAssign(a *parc.AssignStmt) bool {
	return a.LHS.Name == "A" && len(a.LHS.Indices) == 2 && MentionsVar(a.RHS, "B")
}

func TestLoopNesting(t *testing.T) {
	in := analyzed(t)
	// The A[i][j] = ... assignment is inside two loops.
	asn := findStmt[*parc.AssignStmt](in.Prog, mainAssign)
	loops := in.Loops(asn.ID())
	if len(loops) != 2 {
		t.Fatalf("loops = %d", len(loops))
	}
	if loops[0].Var != "i" || loops[1].Var != "j" {
		t.Errorf("loop order: %s, %s (want i, j outermost first)", loops[0].Var, loops[1].Var)
	}
}

func TestParentBlockAndIndex(t *testing.T) {
	in := analyzed(t)
	asn := findStmt[*parc.AssignStmt](in.Prog, mainAssign)
	b, idx, ok := in.Block(asn.ID())
	if !ok {
		t.Fatal("no parent block")
	}
	if b.Stmts[idx] != parc.Stmt(asn) {
		t.Error("index does not locate the statement")
	}
}

func TestFuncAttribution(t *testing.T) {
	in := analyzed(t)
	h := findStmt[*parc.AssignStmt](in.Prog, func(a *parc.AssignStmt) bool {
		return a.LHS.Name == "A" && len(a.LHS.Indices) == 2 && a.LHS.Indices[0].(*parc.VarRef).Name == "k"
	})
	if f := in.Func(h.ID()); f == nil || f.Name != "helper" {
		t.Errorf("func = %v", f)
	}
}

func TestRefsExtraction(t *testing.T) {
	in := analyzed(t)
	asn := findStmt[*parc.AssignStmt](in.Prog, mainAssign)
	refs := in.Refs(asn.ID())
	// Write to A, read of B, read of A[i][j+1].
	var writes, readsA, readsB int
	for _, r := range refs {
		switch {
		case r.Var == "A" && r.Write:
			writes++
		case r.Var == "A":
			readsA++
		case r.Var == "B" && !r.Write:
			readsB++
		}
	}
	if writes != 1 || readsA != 1 || readsB != 1 {
		t.Errorf("refs = %+v", refs)
	}
}

func TestCompoundAssignAddsRead(t *testing.T) {
	in := analyzed(t)
	asn := findStmt[*parc.AssignStmt](in.Prog, func(a *parc.AssignStmt) bool {
		return a.LHS.Name == "flag"
	})
	refs := in.Refs(asn.ID())
	var r, w int
	for _, ref := range refs {
		if ref.Var == "flag" {
			if ref.Write {
				w++
			} else {
				r++
			}
		}
	}
	if r != 1 || w != 1 {
		t.Errorf("flag refs: %d reads %d writes", r, w)
	}
}

func TestSharedScalarInCondition(t *testing.T) {
	in := analyzed(t)
	wh := findStmt[*parc.WhileStmt](in.Prog, func(*parc.WhileStmt) bool { return true })
	refs := in.Refs(wh.ID())
	if len(refs) != 1 || refs[0].Var != "flag" || refs[0].Write {
		t.Errorf("while-cond refs = %+v", refs)
	}
}

func TestContainsBarrier(t *testing.T) {
	in := analyzed(t)
	outer := findStmt[*parc.ForStmt](in.Prog, func(f *parc.ForStmt) bool { return f.Var == "i" })
	inner := findStmt[*parc.ForStmt](in.Prog, func(f *parc.ForStmt) bool { return f.Var == "j" })
	if !in.ContainsBarrier(outer) {
		t.Error("outer loop contains a barrier but analysis says no")
	}
	if in.ContainsBarrier(inner) {
		t.Error("inner loop does not contain a barrier but analysis says yes")
	}
}

func TestAllRefsOrdered(t *testing.T) {
	in := analyzed(t)
	all := in.AllRefs()
	if len(all) < 5 {
		t.Fatalf("AllRefs = %d refs", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Stmt.ID() > all[i].Stmt.ID() {
			t.Error("refs not in statement order")
		}
	}
}

func TestMentionsVar(t *testing.T) {
	prog := parc.MustParse(`
shared float A[8];
func main() {
    var i int = 1;
    var j int = 2;
    A[i + j * 2] = float(min(i, 3));
}
`)
	asn := findStmt[*parc.AssignStmt](prog, func(*parc.AssignStmt) bool { return true })
	ix := asn.LHS.Indices[0]
	if !MentionsVar(ix, "i") || !MentionsVar(ix, "j") || MentionsVar(ix, "k") {
		t.Error("MentionsVar on index wrong")
	}
	if !MentionsVar(asn.RHS, "i") || MentionsVar(asn.RHS, "j") {
		t.Error("MentionsVar through calls wrong")
	}
}

func TestAffineInVar(t *testing.T) {
	mk := func(src string) parc.Expr {
		prog := parc.MustParse("shared float A[64]; func main() { var i int = 0; var c int = 0; A[" + src + "] = 1.0; }")
		asn := findStmt[*parc.AssignStmt](prog, func(*parc.AssignStmt) bool { return true })
		return asn.LHS.Indices[0]
	}
	if off, neg, ok := AffineInVar(mk("i"), "i"); !ok || off != nil || neg {
		t.Error("plain var not affine")
	}
	if off, neg, ok := AffineInVar(mk("i + 1"), "i"); !ok || off == nil || neg {
		t.Error("i+1 not affine")
	}
	if off, neg, ok := AffineInVar(mk("c + i"), "i"); !ok || off == nil || neg {
		t.Error("c+i not affine")
	}
	if off, neg, ok := AffineInVar(mk("i - 2"), "i"); !ok || off == nil || !neg {
		t.Error("i-2 not affine-negated")
	}
	if _, _, ok := AffineInVar(mk("i * 2"), "i"); ok {
		t.Error("i*2 wrongly affine")
	}
	if _, _, ok := AffineInVar(mk("i + i"), "i"); ok {
		t.Error("i+i wrongly affine")
	}
	if _, _, ok := AffineInVar(mk("c"), "i"); ok {
		t.Error("var-free expression wrongly affine in i")
	}
}

// constExpr folds e with parc.FoldConst, the one constant folder the
// analyses share, reporting whether it folded.
func constExpr(e parc.Expr, consts map[string]int64) (int64, bool) {
	v, _, fault := parc.FoldConst(e, consts)
	return v, fault == parc.Folded
}

func TestConstExpr(t *testing.T) {
	consts := map[string]int64{"N": 8}
	mk := func(src string) parc.Expr {
		prog := parc.MustParse("const N = 8; shared float A[N * N]; func main() { var i int = 0; A[" + src + "] = 1.0; }")
		asn := findStmt[*parc.AssignStmt](prog, func(*parc.AssignStmt) bool { return true })
		return asn.LHS.Indices[0]
	}
	if v, ok := constExpr(mk("N * 2 + 1"), consts); !ok || v != 17 {
		t.Errorf("N*2+1 = %d, %v", v, ok)
	}
	if v, ok := constExpr(mk("N - 1"), consts); !ok || v != 7 {
		t.Errorf("N-1 = %d, %v", v, ok)
	}
	if _, ok := constExpr(mk("i + 1"), consts); ok {
		t.Error("non-const accepted")
	}
	if v, ok := constExpr(mk("0 - N"), consts); !ok || v != -8 {
		t.Errorf("0-N = %d, %v", v, ok)
	}
}

func TestConstExprOverflow(t *testing.T) {
	const minI64, maxI64 = -9223372036854775808, 9223372036854775807
	consts := map[string]int64{"MIN": minI64, "MAX": maxI64, "HALF": maxI64 / 2}
	mk := func(src string) parc.Expr {
		prog := parc.MustParse("shared float A[8]; func main() { " +
			"var MIN int = 0; var MAX int = 0; var HALF int = 0; A[" + src + "] = 1.0; }")
		asn := findStmt[*parc.AssignStmt](prog, func(*parc.AssignStmt) bool { return true })
		return asn.LHS.Indices[0]
	}
	cases := []struct {
		expr string
		want int64
		ok   bool
	}{
		{"MAX + 1", 0, false},
		{"MIN - 1", 0, false},
		{"MIN + MIN", 0, false},
		{"MAX * 2", 0, false},
		{"HALF * 2", maxI64 - 1, true},
		{"MIN * 0 - 1", -1, true},
		{"-MIN", 0, false},
		{"-MAX", minI64 + 1, true},
		{"MIN / (0 - 1)", 0, false}, // MinInt64 / -1 wraps
		{"MIN / 1", minI64, true},
		{"MAX + (0 - 1)", maxI64 - 1, true},
		{"MIN - MIN", 0, true},
	}
	for _, c := range cases {
		v, ok := constExpr(mk(c.expr), consts)
		if ok != c.ok || (ok && v != c.want) {
			t.Errorf("ConstExpr(%q) = %d, %v; want %d, %v", c.expr, v, ok, c.want, c.ok)
		}
	}
}

func TestTripCountBounds(t *testing.T) {
	const minI64, maxI64 = -9223372036854775808, 9223372036854775807
	cases := []struct {
		from, to, step int64
		want           uint64
		ok             bool
	}{
		{0, 9, 1, 10, true},
		{0, 9, 2, 5, true},
		{0, 9, 3, 4, true},
		{9, 0, -1, 10, true},
		{9, 0, -3, 4, true},
		{5, 4, 1, 0, true},  // empty ascending
		{4, 5, -1, 0, true}, // empty descending
		{0, 0, 5, 1, true},
		{0, 0, 0, 0, false},                                   // zero step never terminates
		{minI64, maxI64, 1, 0, false},                         // to-from overflows
		{maxI64, minI64, -1, 0, false},                        // from-to overflows
		{minI64 + 1, maxI64, maxI64, 0, false},                // diff exceeds int64 even though trips would be small
		{0, maxI64, minI64, 0, true},                          // negative max-magnitude step, wrong direction
		{maxI64, 0, minI64, 1, true},                          // |MinInt64| step covers the range in one trip
		{maxI64 - 1, maxI64, 1, 2, true},                      // bounds at the edge, no overflow
		{minI64, minI64 + 2, 1, 3, true},                      // negative edge
		{-4, 4, 3, 3, true},                                   // crosses zero
		{4, -4, -3, 3, true},                                  // crosses zero descending
		{minI64 / 2, maxI64 / 2, 1, uint64(maxI64) + 1, true}, // diff = MaxInt64, trips still fit uint64
	}
	for _, c := range cases {
		got, ok := TripCountBounds(c.from, c.to, c.step)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("TripCountBounds(%d, %d, %d) = %d, %v; want %d, %v",
				c.from, c.to, c.step, got, ok, c.want, c.ok)
		}
	}
}

func TestTripCountForStmt(t *testing.T) {
	consts := map[string]int64{"N": 8}
	mk := func(head string) *parc.ForStmt {
		prog := parc.MustParse("const N = 8; shared float A[N]; func main() { var j int = 3; " + head + " { A[0] = 1.0; } }")
		return findStmt[*parc.ForStmt](prog, func(*parc.ForStmt) bool { return true })
	}
	if n, ok := TripCount(mk("for i = 0 to N - 1"), consts); !ok || n != 8 {
		t.Errorf("0..N-1 = %d, %v", n, ok)
	}
	if n, ok := TripCount(mk("for i = N - 1 to 0 step -2"), consts); !ok || n != 4 {
		t.Errorf("reverse step -2 = %d, %v", n, ok)
	}
	if _, ok := TripCount(mk("for i = 0 to N - 1 step 0 - 0"), consts); ok {
		t.Error("zero step accepted")
	}
	if _, ok := TripCount(mk("for i = 0 to j"), consts); ok {
		t.Error("non-const bound accepted")
	}
}
