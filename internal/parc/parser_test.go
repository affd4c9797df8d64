package parc

import (
	"strings"
	"testing"
)

const miniProgram = `
const N = 16;
const P = 4;

shared float A[N][N] label "A";
shared float B[N][N] label "B";
shared int done;

func work(base int) float {
    var sum float = 0.0;
    for i = 0 to N - 1 {
        sum += A[base][i];
    }
    return sum;
}

func main() {
    var t float;
    if pid() == 0 {
        for i = 0 to N - 1 {
            for j = 0 to N - 1 step 2 {
                A[i][j] = float(i * j);
            }
        }
        done = 1;
    }
    barrier;
    check_out_s A[pid()][0:N-1];
    t = work(pid());
    check_in A[pid()][0:N-1];
    lock(0);
    B[0][0] += t;
    unlock(0);
    barrier;
    while done > 1 {
        done -= 1;
    }
    print("t=%f", t);
}
`

func TestParseMiniProgram(t *testing.T) {
	prog, err := Parse(miniProgram)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Consts) != 2 || len(prog.Shareds) != 3 || len(prog.Funcs) != 2 {
		t.Fatalf("decl counts: %d consts, %d shareds, %d funcs",
			len(prog.Consts), len(prog.Shareds), len(prog.Funcs))
	}
	if prog.ConstVal["N"] != 16 || prog.ConstVal["P"] != 4 {
		t.Errorf("const values: %v", prog.ConstVal)
	}
	a := prog.SharedMap["A"]
	if a == nil || len(a.DimSizes) != 2 || a.DimSizes[0] != 16 || a.Size != 256 {
		t.Errorf("shared A resolved badly: %+v", a)
	}
	if a.Label != "A" {
		t.Errorf("label %q", a.Label)
	}
	d := prog.SharedMap["done"]
	if d == nil || len(d.DimSizes) != 0 || d.Size != 1 {
		t.Errorf("shared scalar done resolved badly: %+v", d)
	}
}

func TestConstsReferenceEarlierConsts(t *testing.T) {
	prog, err := Parse(`
const N = 8;
const N2 = N * N;
const HALF = N2 / 2;
func main() { }
`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.ConstVal["N2"] != 64 || prog.ConstVal["HALF"] != 32 {
		t.Errorf("const values: %v", prog.ConstVal)
	}
}

func TestStatementIDsUniqueAndDense(t *testing.T) {
	prog := MustParse(miniProgram)
	seen := make(map[int]bool)
	WalkProgram(prog, func(s Stmt) bool {
		if seen[s.ID()] {
			t.Errorf("duplicate statement ID %d", s.ID())
		}
		seen[s.ID()] = true
		if s.ID() < 0 || s.ID() >= prog.NumStmts() {
			t.Errorf("statement ID %d out of range [0,%d)", s.ID(), prog.NumStmts())
		}
		return true
	})
	if len(seen) == 0 {
		t.Fatal("walk visited no statements")
	}
	for id := range seen {
		if prog.Stmts[id] == nil {
			t.Errorf("Stmts missing ID %d", id)
		}
	}
}

func TestParsePrintRoundTrip(t *testing.T) {
	prog1 := MustParse(miniProgram)
	out1 := Print(prog1)
	prog2, err := Parse(out1)
	if err != nil {
		t.Fatalf("re-parse of printed output failed: %v\n%s", err, out1)
	}
	out2 := Print(prog2)
	if out1 != out2 {
		t.Errorf("print not idempotent:\n--- first ---\n%s\n--- second ---\n%s", out1, out2)
	}
}

func TestParseElseIfChain(t *testing.T) {
	src := `
func main() {
    var x int = 3;
    if x == 1 {
        x = 10;
    } else if x == 2 {
        x = 20;
    } else {
        x = 30;
    }
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	out := Print(prog)
	if !strings.Contains(out, "} else if x == 2 {") {
		t.Errorf("else-if not printed inline:\n%s", out)
	}
	if _, err := Parse(out); err != nil {
		t.Errorf("printed else-if does not re-parse: %v\n%s", err, out)
	}
}

func TestParseCICOStatements(t *testing.T) {
	src := `
const N = 8;
shared float A[N][N];
func main() {
    check_out_x A[0][0:N-1];
    prefetch_s A[1][3];
    check_in A[0][0:N-1];
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var cicos []*CICOStmt
	WalkProgram(prog, func(s Stmt) bool {
		if c, ok := s.(*CICOStmt); ok {
			cicos = append(cicos, c)
		}
		return true
	})
	if len(cicos) != 3 {
		t.Fatalf("got %d CICO statements", len(cicos))
	}
	if cicos[0].Kind != AnnCheckOutX || cicos[1].Kind != AnnPrefetchS || cicos[2].Kind != AnnCheckIn {
		t.Errorf("kinds: %v %v %v", cicos[0].Kind, cicos[1].Kind, cicos[2].Kind)
	}
	if cicos[0].Target.Indices[1].Hi == nil {
		t.Error("range hi missing on check_out_x")
	}
	if cicos[1].Target.Indices[1].Hi != nil {
		t.Error("single index parsed as range")
	}
}

func TestOperatorPrecedence(t *testing.T) {
	prog := MustParse(`func main() { var x int; x = 1 + 2 * 3 - 4 / 2; }`)
	asn := findFirstAssign(prog)
	if got := ExprString(asn.RHS); got != "1 + 2 * 3 - 4 / 2" {
		t.Errorf("precedence flattened wrong: %q", got)
	}
}

func TestParenthesesPreservedWhenNeeded(t *testing.T) {
	prog := MustParse(`func main() { var x int; x = (1 + 2) * 3; }`)
	asn := findFirstAssign(prog)
	if got := ExprString(asn.RHS); got != "(1 + 2) * 3" {
		t.Errorf("needed parens dropped: %q", got)
	}
}

func findFirstAssign(p *Program) *AssignStmt {
	var out *AssignStmt
	WalkProgram(p, func(s Stmt) bool {
		if a, ok := s.(*AssignStmt); ok && out == nil {
			out = a
		}
		return out == nil
	})
	return out
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"no main", `func helper() { }`},
		{"main with params", `func main(x int) { }`},
		{"undefined var", `func main() { x = 1; }`},
		{"assign to const", `const N = 1; func main() { N = 2; }`},
		{"bad rank", `shared float A[4][4]; func main() { A[0] = 1.0; }`},
		{"scalar indexed", `func main() { var x int; x[0] = 1; }`},
		{"undefined func", `func main() { foo(); }`},
		{"builtin arity", `func main() { var x int; x = min(1); }`},
		{"func arity", `func f(a int) { } func main() { f(1, 2); }`},
		{"redeclared local", `func main() { var x int; var x float; }`},
		{"redeclared const", `const N = 1; const N = 2; func main() { }`},
		{"cico non-shared", `func main() { var x int; check_in x; }`},
		{"cico rank", `shared float A[4][4]; func main() { check_in A[0]; }`},
		{"shadow builtin", `func min(a int, b int) int { return a; } func main() { }`},
		{"array initializer", `func main() { var a int[4] = 3; }`},
		{"zero dim", `shared float A[0]; func main() { }`},
		{"missing semi", `func main() { barrier }`},
		{"stray token", `func main() { } ;`},
		{"shared array without subscript", `shared float A[4]; func main() { var x float; x = A; }`},
		{"const using non-const", `shared int s; const N = s + 1; func main() { }`},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil {
			t.Errorf("%s: expected parse/check error", c.name)
		}
	}
	// A character outside ASCII is reported whole, and a byte that does
	// not begin a UTF-8 character is reported as that byte.
	for _, c := range []struct{ src, want string }{
		{"var é int;", `1:5: unexpected character "é"`},
		{"func main() { x → y; }", `1:17: unexpected character "→"`},
		{"func main() { x = 1; }\n// ok\n\t\xc3 ", `3:2: unexpected character "\xc3"`},
		{"func main() { \xe2\x86 }", `1:15: unexpected character "\xe2"`},
		{"func main() { \x01 }", `1:15: unexpected character "\x01"`},
	} {
		if _, err := Parse(c.src); err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q) = %v, want %s", c.src, err, c.want)
		}
	}
}

// TestFirstErrorPrecedence pins which diagnostic a file with several
// problems gets: a malformed token anywhere wins over a syntax error (also
// over one that precedes it), the first malformed token wins over later
// ones, and a syntax error wins over a checker error. The parser pulls
// tokens as it goes, so the first rule is the one it has to work for.
func TestFirstErrorPrecedence(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"lex after syntax", "func main() { barrier }\n@", `t.parc:2:1: unexpected character "@"`},
		{"lex before syntax", "func main() { @ barrier }", `t.parc:1:15: unexpected character "@"`},
		{"lex at the lookahead", "func main() { barrier @", `t.parc:1:23: unexpected character "@"`},
		{"first of two lex", "func main() { & }\n\"open", `t.parc:1:15: unexpected '&'`},
		{"lex in a valid program", "func main() { }\n\"open", `t.parc:2:1: unterminated string literal`},
		{"syntax alone", "func main() { barrier }", `t.parc:1:23: expected ';', found '}'`},
		{"syntax before check", "func main() { y = 1; barrier }", `t.parc:1:30: expected ';', found '}'`},
	}
	for _, tc := range cases {
		_, err := ParseFile("t.parc", tc.src)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
		} else if got := err.Error(); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
		// Tokenize sees the same first malformed token, if there is one.
		if _, lexErr := Tokenize(tc.src); lexErr != nil && (err == nil || "t.parc:"+lexErr.Error() != err.Error()) {
			t.Errorf("%s: Tokenize reports %v, ParseFile %v", tc.name, lexErr, err)
		}
	}
}

func TestLoopVarImplicitlyDeclared(t *testing.T) {
	if _, err := Parse(`func main() { for i = 0 to 3 { } for i = 0 to 5 { } }`); err != nil {
		t.Fatalf("reusing loop variable should be fine: %v", err)
	}
}

func TestNegativeStepLoopParses(t *testing.T) {
	prog := MustParse(`func main() { for i = 10 to 0 step -2 { } }`)
	var fs *ForStmt
	WalkProgram(prog, func(s Stmt) bool {
		if f, ok := s.(*ForStmt); ok {
			fs = f
		}
		return true
	})
	if fs == nil || fs.Step == nil {
		t.Fatal("for statement or step missing")
	}
	if got := ExprString(fs.Step); got != "-2" {
		t.Errorf("step printed as %q", got)
	}
}
