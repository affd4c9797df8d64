package parc

import (
	"math"
	"testing"
)

// TestCheckerErrorMessages pins the checker's diagnostics end to end:
// every error must render as file:line:col followed by the message, with
// the position pointing at the offending token, so downstream tools
// (cachier, parcvet) print locations a user can click through to.
func TestCheckerErrorMessages(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{
			name: "no main function",
			src:  `const N = 4;`,
			want: `test.parc:1:1: program has no main function`,
		},
		{
			name: "redeclared constant",
			src: `const N = 4;
const N = 8;
func main() { barrier; }`,
			want: `test.parc:2:1: constant "N" redeclared`,
		},
		{
			name: "shared collides with constant",
			src: `const N = 4;
shared float N label "N";
func main() { barrier; }`,
			want: `test.parc:2:1: shared "N" collides with a constant`,
		},
		{
			name: "non-positive shared dimension",
			src: `shared float A[0] label "A";
func main() { barrier; }`,
			want: `test.parc:1:1: shared "A" has non-positive dimension 0`,
		},
		// Sizes arrive from outside: a declaration the machine cannot hold is
		// a positioned error, not an out-of-memory kill or a wrapped product.
		{
			name: "shared array over the limit",
			src: `shared float A[4000000000];
func main() { A[0] = 1.0; }`,
			want: `test.parc:1:1: shared "A" is larger than the array limit of 33554432 elements`,
		},
		{
			name: "shared array whose element count overflows",
			src: `shared int A[4294967296][4294967296];
func main() { A[0][0] = 1; }`,
			want: `test.parc:1:1: shared "A" is larger than the array limit of 33554432 elements`,
		},
		{
			name: "shared array over the limit only as a product",
			src: `shared int A[8192][8192];
func main() { A[0][0] = 1; }`,
			want: `test.parc:1:1: shared "A" is larger than the array limit of 33554432 elements`,
		},
		{
			name: "private array over the limit",
			src: `func main() {
    var big float[4000000000];
}`,
			want: `test.parc:2:5: variable "big" is larger than the array limit of 33554432 elements`,
		},
		{
			name: "main takes parameters",
			src:  `func main(x int) { barrier; }`,
			want: `test.parc:1:1: main must take no parameters`,
		},
		{
			name: "undefined variable assignment",
			src: `func main() {
    y = 1;
}`,
			want: `test.parc:2:5: undefined variable "y"`,
		},
		// A constant is folded exactly or refused: an intermediate that
		// leaves int64 is an error where it happens, never a wrapped value.
		{
			name: "constant whose product overflows",
			src: `const N = 4611686018427387904 * 4 + 8;
func main() { barrier; }`,
			want: `test.parc:1:31: integer overflow in constant expression`,
		},
		{
			name: "constant whose sum overflows",
			src: `const M = 9223372036854775807 + 9;
func main() { barrier; }`,
			want: `test.parc:1:31: integer overflow in constant expression`,
		},
		{
			name: "assignment to constant",
			src: `const N = 4;
func main() {
    N = 5;
}`,
			want: `test.parc:3:5: cannot assign to constant "N"`,
		},
		{
			name: "undefined name in expression",
			src: `func main() {
    var x int = q + 1;
}`,
			want: `test.parc:2:17: undefined name "q"`,
		},
		{
			name: "wrong rank",
			src: `shared float A[4][4] label "A";
func main() {
    A[1] = 0.0;
}`,
			want: `test.parc:3:5: "A" has rank 2 but is indexed with 1 subscript(s)`,
		},
		{
			name: "annotation target not shared",
			src: `func main() {
    var x int;
    check_out_x x;
}`,
			want: `test.parc:3:17: CICO annotation target "x" is not a shared variable`,
		},
		{
			name: "builtin arity",
			src: `func main() {
    var x int = min(1);
}`,
			want: `test.parc:2:17: builtin "min" takes 2 argument(s), got 1`,
		},
		{
			name: "undefined function",
			src: `func main() {
    var x int = nothere(3);
}`,
			want: `test.parc:2:17: undefined function "nothere"`,
		},
		{
			name: "shared array without subscripts",
			src: `shared float A[4] label "A";
func main() {
    var x float = A;
}`,
			want: `test.parc:3:19: shared array "A" used without subscripts`,
		},
		{
			name: "private loop variable required",
			src: `shared int i label "i";
func main() {
    for i = 0 to 3 {
        barrier;
    }
}`,
			want: `test.parc:3:5: loop variable "i" must be private`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseFile("test.parc", tc.src)
			if err == nil {
				t.Fatalf("expected a checker error")
			}
			if got := err.Error(); got != tc.want {
				t.Errorf("error message:\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}

// TestCheckerErrorsWithoutFile: positions from the plain Parse entry point
// render as line:col with no file prefix.
func TestCheckerErrorsWithoutFile(t *testing.T) {
	_, err := Parse(`func main() {
    y = 1;
}`)
	if err == nil {
		t.Fatal("expected an error")
	}
	if got, want := err.Error(), `2:5: undefined variable "y"`; got != want {
		t.Errorf("error message:\n got %q\nwant %q", got, want)
	}
}

// TestFoldConstFaults: the one constant folder names its fault and the
// subexpression at fault, and allocates nothing doing it; only the checker
// turns a fault into an error.
func TestFoldConstFaults(t *testing.T) {
	consts := map[string]int64{"N": 8, "MAX": math.MaxInt64}
	big := NewBinary(TokStar, NewIntLit(1<<62), NewIntLit(4))
	zero := NewBinary(TokPercent, NewVarRef("N"), NewIntLit(0))
	free := NewVarRef("i")
	cases := []struct {
		e     Expr
		want  int64
		at    Expr
		fault ConstFault
	}{
		{NewBinary(TokPlus, NewBinary(TokStar, NewVarRef("N"), NewIntLit(2)), NewIntLit(1)), 17, nil, Folded},
		{NewBinary(TokPlus, big, NewIntLit(8)), 0, big, Overflow},
		{NewBinary(TokMinus, NewIntLit(0), NewBinary(TokMinus, NewIntLit(0), NewVarRef("MAX"))), math.MaxInt64, nil, Folded},
		{NewBinary(TokSlash, NewIntLit(1), zero), 0, zero, DivZero},
		{NewBinary(TokPlus, NewIntLit(1), free), 0, free, NotConst},
		{NewBinary(TokLt, NewIntLit(1), NewIntLit(2)), 0, nil, NotConst},
	}
	for i, c := range cases {
		v, at, fault := FoldConst(c.e, consts)
		if fault != c.fault || v != c.want || (c.at != nil && at != c.at) {
			t.Errorf("case %d: FoldConst = %d, %v, %d; want %d, %v, %d", i, v, at, fault, c.want, c.at, c.fault)
		}
		if allocs := testing.AllocsPerRun(10, func() { FoldConst(c.e, consts) }); allocs != 0 {
			t.Errorf("case %d: FoldConst allocates %.0f times", i, allocs)
		}
	}
}
