package parc_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cachier/internal/bench"
	"cachier/internal/core"
	"cachier/internal/parc"
	"cachier/internal/parcgen"
	"cachier/internal/sim"
	"cachier/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// literalCases are the printer's and the literal parser's corners: float
// texts that %g writes with an exponent, a float that needs the ".0" rule,
// the int64 limits, nested unary operators, parentheses the printer must
// keep and ones it must drop, raw control bytes in strings and labels,
// else-if chains, and every CICO kind.
var literalCases = []string{
	`func main() { var x float = 1e300 * 1e10; var y float = 0.000001; var z float = 1000.0; var w float = 123456789.0 * 1e21 + 0.5e-7; }`,
	`func main() { var x float = 1e400; }`,
	`func main() { var x int = 9223372036854775807; var y int = -9223372036854775807 - 1; var z int = 000123; }`,
	`func main() { var x int = 9223372036854775808; }`,
	`func main() { var x int = 99999999999999999999999; }`,
	`func main() { var x int = 3; var y int = - -x; y = -(-x); y = !-x; y = -!x; y = !(x < 2); y = -(x + 1) * 2; }`,
	`func main() { var a int = 1; var b int = 2; var c int = 3; var d int = (a + b) * c; d = a + (b * c); d = a - (b - c); d = (a - b) - c; d = a / (b / c) % (a % b); d = (a || b) && c; d = a || (b && c); d = (a < b) == (b < c); d = -(a) + (-b); }`,
	"shared float D[8] label \"da\rta\x01\";\n\nfunc main() {\n    print(\"x\ry\x7f \\\\ \\\" \\t \\n %d\", 1);\n    barrier;\n}\n",
	`func main() { var x int = pid(); if x == 0 { x = 1; } else if x == 1 { x = 2; } else if x == 2 { x = 3; } else { x = 4; } if x > 0 { x = 5; } else { if x < 0 { x = 6; } } }`,
	`const N = 8; const M = N * 2 + 1; shared float A[N][M] label "A"; shared int B[N];
func f(i int, v float) float { return v * float(i); }
func g() { return; }
func main() {
    var buf float[4];
    for i = 0 to N - 1 step 2 { A[i][0] += f(i, 1.5); }
    while buf[0] < 3.0 { buf[0] = buf[0] + 1.0; }
    lock(B[0] % 4); unlock(1);
    g();
    check_out_x A[pid()][0:M - 1];
    check_out_s A[0][1];
    check_in A[pid()][0:3];
    prefetch_x B[0:N - 1];
    prefetch_s A[1:2][3:4];
    barrier;
}`,
}

// unknownStmt and unknownExpr are node types the printer does not know; it
// prints its %T fallback texts for them.
type unknownStmt struct{ *parc.BarrierStmt }

type unknownExpr struct{ *parc.IntLit }

// edited prints jacobi with generated statements spliced into main's body:
// a CommentStmt, a CICO statement over generated expressions (including a
// negative literal the parser never produces), and the two unknown nodes.
func edited(t *testing.T, src string) string {
	prog, err := parc.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	main := prog.FuncMap["main"].Body
	target := &parc.RangeRef{Name: "A", Indices: []parc.RangeIndex{
		{Lo: parc.NewBinary(parc.TokMinus, parc.NewVarRef("k"), parc.NewIntLit(-3))},
		{Lo: parc.NewIntLit(0), Hi: parc.NewBinary(parc.TokStar, parc.NewBinary(parc.TokPlus, parc.NewVarRef("n"), parc.NewIntLit(1)), unknownExpr{parc.NewIntLit(2)})},
	}}
	stmts := append([]parc.Stmt{
		&parc.CommentStmt{Text: "Data race on A"},
		&parc.CICOStmt{Kind: parc.AnnCheckIn, Target: target},
		unknownStmt{&parc.BarrierStmt{}},
	}, main.Stmts...)
	return parc.PrintEdited(prog, map[*parc.Block][]parc.Stmt{main: stmts})
}

// TestPrintGolden pins the printer's output byte for byte: Print of the
// checked-in examples and of every Figure 6 port's train, test and hand
// sources, the annotated text core prints for each port (with and without
// prefetch), the literal corners above (or the parse error), generated
// nodes, and a sha256 over Print of parcgen seeds 0-1999.
func TestPrintGolden(t *testing.T) {
	var out strings.Builder
	section := func(name, text string) { fmt.Fprintf(&out, "=== %s\n%s", name, text) }
	printed := func(name, src string) {
		prog, err := parc.Parse(src)
		if err != nil {
			section(name, "error: "+err.Error()+"\n")
			return
		}
		section(name, parc.Print(prog))
	}
	examples, err := filepath.Glob("../../examples/parc/*.parc")
	if err != nil || len(examples) == 0 {
		t.Fatalf("no examples: %v", err)
	}
	for _, f := range examples {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		printed(filepath.Base(f), string(src))
		if strings.Contains(f, "jacobi") {
			section(filepath.Base(f)+" edited", edited(t, string(src)))
		}
	}
	for _, b := range bench.All() {
		printed(b.Name+" train", b.Source(b.Train))
		printed(b.Name+" test", b.Source(b.Test))
		printed(b.Name+" hand", b.Hand(b.Test))
		prog := parc.MustParse(b.Source(b.Train))
		cfg := sim.DefaultConfig()
		cfg.Nodes = b.Nodes
		cfg.Mode = sim.ModeTrace
		res, err := sim.Run(prog, cfg)
		if err != nil {
			t.Fatalf("%s: tracing: %v", b.Name, err)
		}
		for _, prefetch := range []bool{false, true} {
			opts := core.DefaultOptions()
			opts.Prefetch = prefetch
			ann, err := core.AnnotateMulti(prog, []*trace.Trace{res.Trace}, opts)
			if err != nil {
				t.Fatalf("%s: annotating: %v", b.Name, err)
			}
			section(fmt.Sprintf("%s annotated, prefetch %v", b.Name, prefetch), ann.Source)
		}
	}
	for i, src := range literalCases {
		printed(fmt.Sprintf("literals %d", i), src)
	}
	h := sha256.New()
	for seed := int64(0); seed < 2000; seed++ {
		h.Write([]byte(parc.Print(parc.MustParse(parcgen.Generate(seed)))))
	}
	section("parcgen seeds 0-1999", fmt.Sprintf("sha256 %x\n", h.Sum(nil)))

	golden := filepath.Join("testdata", "print.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output differs from %s at line %d:\n got: %q\nwant: %q", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output differs from %s in length: %d lines, want %d", golden, len(gl), len(wl))
	}
}
