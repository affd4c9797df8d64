package parc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// genExpr builds a random expression tree over the variables a, b, c.
func genExpr(rng *rand.Rand, depth int) Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(4) {
		case 0:
			return NewIntLit(int64(rng.Intn(100)))
		case 1:
			return &FloatLit{Value: float64(rng.Intn(100))/4 + 0.5}
		case 2:
			return NewVarRef([]string{"a", "b", "c"}[rng.Intn(3)])
		default:
			return &CallExpr{Name: "min", Args: []Expr{
				genExpr(rng, 0), genExpr(rng, 0),
			}}
		}
	}
	ops := []TokKind{TokPlus, TokMinus, TokStar, TokSlash, TokPercent,
		TokEq, TokNe, TokLt, TokLe, TokGt, TokGe, TokAndAnd, TokOrOr}
	if rng.Intn(4) == 0 {
		op := TokMinus
		if rng.Intn(2) == 0 {
			op = TokNot
		}
		return &UnaryExpr{Op: op, X: genExpr(rng, depth-1)}
	}
	return NewBinary(ops[rng.Intn(len(ops))], genExpr(rng, depth-1), genExpr(rng, depth-1))
}

// TestExprPrintParseRoundTrip: printing an expression and re-parsing it
// yields a structurally identical print — the printer emits exactly the
// parentheses precedence requires.
func TestExprPrintParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := genExpr(rng, 4)
		printed := ExprString(e)
		src := "func main() { var a int; var b int; var c int; var x int; x = " + printed + "; }"
		prog, err := Parse(src)
		if err != nil {
			t.Logf("printed expression does not parse: %v\n%s", err, printed)
			return false
		}
		var rhs Expr
		WalkProgram(prog, func(s Stmt) bool {
			if a, ok := s.(*AssignStmt); ok && a.LHS.Name == "x" {
				rhs = a.RHS
			}
			return true
		})
		if got := ExprString(rhs); got != printed {
			t.Logf("round trip changed expression:\n  before: %s\n  after:  %s", printed, got)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Tricky statement corpus: print must be stable (idempotent) and re-parse.
var printerCorpus = []string{
	`
const N = 4;
shared int a[N];
func main() {
    check_out_x a[0:N - 1];
    a[0] = -1;
    a[1] = -(1 + 2);
    a[2] = 3 % 2 * 4;
    a[3] = (3 + 1) % 2;
    check_in a[0:N - 1];
}
`,
	`
shared float m[2][2];
func main() {
    var i int;
    while i < 2 {
        for j = 0 to 1 {
            m[i][j] = float(i * 2 + j);
        }
        i += 1;
    }
    print("done %d", i);
}
`,
	`
func f(x int) int {
    if x <= 0 {
        return 0;
    } else if x == 1 {
        return 1;
    } else {
        return f(x - 1) + f(x - 2);
    }
}
func main() {
    var r int = f(10);
    lock(r % 4);
    unlock(r % 4);
    barrier;
}
`,
	`
shared float v[16];
func main() {
    prefetch_s v[0:15];
    prefetch_x v[3];
    var s float = 0.0;
    for i = 15 to 0 step -1 {
        s += v[i] / 2.0;
    }
}
`,
}

func TestPrintIdempotentOnCorpus(t *testing.T) {
	for i, src := range printerCorpus {
		p1, err := Parse(src)
		if err != nil {
			t.Fatalf("corpus %d: %v", i, err)
		}
		out1 := Print(p1)
		p2, err := Parse(out1)
		if err != nil {
			t.Fatalf("corpus %d: re-parse: %v\n%s", i, err, out1)
		}
		out2 := Print(p2)
		if out1 != out2 {
			t.Errorf("corpus %d: print not idempotent:\n%s\n---\n%s", i, out1, out2)
		}
	}
}

func TestBlockCommentsLex(t *testing.T) {
	src := `
func main() {
    /* block comment */
    barrier; /* trailing */
    /*** Data Race on X ***/
    /* multi
       line */
    barrier;
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	WalkProgram(prog, func(s Stmt) bool {
		if _, ok := s.(*BarrierStmt); ok {
			count++
		}
		return true
	})
	if count != 2 {
		t.Errorf("barrier count = %d", count)
	}
	// An unterminated block comment is an error at its opening: run to
	// EOF, it would drop what follows it.
	if _, err := Parse("func main() { } /* unterminated"); err == nil || err.Error() != "1:17: unterminated block comment" {
		t.Errorf("unterminated trailing comment: %v", err)
	}
}

func TestCommentStmtPrints(t *testing.T) {
	prog := MustParse(`func main() { barrier; }`)
	body := prog.Funcs[0].Body
	cm := &CommentStmt{Text: "Data Race on C[i][j]"}
	out := PrintEdited(prog, map[*Block][]Stmt{body: append([]Stmt{cm}, body.Stmts...)})
	if !strings.Contains(out, "/*** Data Race on C[i][j] ***/") {
		t.Errorf("comment not printed:\n%s", out)
	}
	if _, err := Parse(out); err != nil {
		t.Errorf("printed comment does not re-parse: %v", err)
	}
}

// TestPrintEdited: every kind of block prints its edited list in place of
// its own, blocks without an edit print as they are, and the program itself
// is untouched.
func TestPrintEdited(t *testing.T) {
	const src = `func main() {
    if pid() == 0 {
        barrier;
    } else if pid() == 1 {
        barrier;
    } else {
        barrier;
    }
    while 0 {
        barrier;
    }
    for i = 0 to 1 {
        barrier;
    }
    {
        barrier;
    }
}
`
	prog := MustParse(src)
	edits := make(map[*Block][]Stmt)
	n := 0
	WalkProgram(prog, func(s Stmt) bool {
		if b, ok := s.(*Block); ok {
			n++
			cm := &CommentStmt{Text: fmt.Sprintf("edit %d", n)}
			edits[b] = append([]Stmt{cm}, b.Stmts...)
		}
		return true
	})
	out := PrintEdited(prog, edits)
	for i := 1; i <= n; i++ {
		if c := strings.Count(out, fmt.Sprintf("/*** edit %d ***/", i)); c != 1 {
			t.Errorf("edit %d printed %d times:\n%s", i, c, out)
		}
	}
	if n != 7 {
		t.Errorf("%d blocks edited, want 7 (main, then, else-if then, else, while, for, bare)", n)
	}
	if _, err := Parse(out); err != nil {
		t.Errorf("edited program does not re-parse: %v\n%s", err, out)
	}
	if got := Print(prog); got != src {
		t.Errorf("Print after PrintEdited:\n%s\nwant the source unchanged:\n%s", got, src)
	}
}

func TestRangeRefString(t *testing.T) {
	prog := MustParse(`
shared float A[4][4];
func main() {
    check_out_s A[1][0:3];
}
`)
	var c *CICOStmt
	WalkProgram(prog, func(s Stmt) bool {
		if n, ok := s.(*CICOStmt); ok {
			c = n
		}
		return true
	})
	if got := RangeRefString(c.Target); got != "A[1][0:3]" {
		t.Errorf("RangeRefString = %q", got)
	}
}

func TestAnnKindStrings(t *testing.T) {
	cases := map[AnnKind]string{
		AnnCheckOutX: "check_out_x",
		AnnCheckOutS: "check_out_s",
		AnnCheckIn:   "check_in",
		AnnPrefetchX: "prefetch_x",
		AnnPrefetchS: "prefetch_s",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%v != %s", k, want)
		}
		if k.IsCheckOut() == (k == AnnCheckIn) {
			t.Errorf("%v IsCheckOut wrong", k)
		}
	}
}
