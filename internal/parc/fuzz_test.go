package parc_test

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"cachier/internal/parc"
	"cachier/internal/parcgen"
)

// FuzzParsePrint: no text makes the front end panic, and every program it
// accepts prints to text that parses back to an equal AST and prints the
// same again. The token digest (cachierd's program-cache key) fails exactly
// when Tokenize does, does not move when whitespace and comments are put
// between the tokens, and so keys texts that parse alike and print the same.
func FuzzParsePrint(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(parcgen.Generate(seed))
	}
	examples, _ := filepath.Glob("../../examples/parc/*.parc")
	for _, file := range examples {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, src := range literalCases {
		f.Add(src)
	}
	f.Add("func main() { } // no newline")
	f.Fuzz(func(t *testing.T, src string) {
		checkDigest(t, src)
		prog, err := parc.Parse(src)
		if err != nil {
			return
		}
		out := parc.Print(prog)
		again, err := parc.Parse(out)
		if err != nil {
			t.Fatalf("printed program does not parse: %v\n%s", err, out)
		}
		if err := parc.ASTEqual(prog, again); err != nil {
			t.Fatalf("printed program differs: %v\n%s", err, out)
		}
		if out2 := parc.Print(again); out2 != out {
			t.Fatalf("print is not a fixpoint:\n%s\n---\n%s", out, out2)
		}
	})
}

// fillers are what respace puts before tokens: each is whitespace or a
// comment, and the comments start with a space so that none can join a '/'
// token before it into a comment opener.
var fillers = []string{" ", "\t\t", "\n", "\r\n", " // line comment\n", " /* block */", " /* two\r\n lines */ ", "\n\n    "}

// respace returns src with a filler before each of its tokens and, after a
// newline that ends any trailing line comment, at its end. Token offsets
// come from the lexer's positions.
func respace(src string, toks []parc.Token) string {
	lineStart := []int{0}
	for i := range len(src) {
		if src[i] == '\n' {
			lineStart = append(lineStart, i+1)
		}
	}
	var b strings.Builder
	prev := 0
	for i, tok := range toks[:len(toks)-1] { // the last is EOF
		off := lineStart[tok.Pos.Line-1] + tok.Pos.Col - 1
		b.WriteString(src[prev:off])
		b.WriteString(fillers[(i+len(src))%len(fillers)])
		prev = off
	}
	b.WriteString(src[prev:])
	b.WriteString("\n" + fillers[len(src)%len(fillers)])
	return b.String()
}

// checkDigest checks the token digest's properties on src.
func checkDigest(t *testing.T, src string) {
	toks, terr := parc.Tokenize(src)
	sum, derr := parc.Digest(src)
	if (terr == nil) != (derr == nil) {
		t.Fatalf("Tokenize error %v, Digest error %v", terr, derr)
	}
	if terr != nil {
		return
	}
	spaced := respace(src, toks)
	if again, err := parc.Digest(spaced); err != nil || again != sum {
		t.Fatalf("re-spacing moved the digest (error %v):\n%q\n%q", err, src, spaced)
	}
	prog, err := parc.Parse(src)
	prog2, err2 := parc.Parse(spaced)
	if (err == nil) != (err2 == nil) {
		t.Fatalf("equal digests, but one text parses and one does not: %v, %v\n%q\n%q", err, err2, src, spaced)
	}
	if err == nil && parc.Print(prog) != parc.Print(prog2) {
		t.Fatalf("equal digests print differently:\n%q\n%q", src, spaced)
	}
}

// TestFrontEndAllocBudget is the host-independent gate on what the front
// end allocates. Print appends into one buffer sized from the statement
// count and copies it into the result, so a corpus program takes two
// allocations; building each expression with Sprintf it took over 200.
// Parsing the 200-program corpus slice allocates 2.66 MB with strconv
// literals and a statement slice, and 3.38 MB with Sscanf and a statement
// map; the budget lies between the two.
func TestFrontEndAllocBudget(t *testing.T) {
	var srcs []string
	for seed := int64(0); seed < 200; seed++ {
		srcs = append(srcs, parcgen.Generate(seed))
	}
	for seed, src := range srcs {
		prog := parc.MustParse(src)
		if n := testing.AllocsPerRun(5, func() { parc.Print(prog) }); n > 3 {
			t.Errorf("Print of corpus seed %d: %.0f allocations, budget 3", seed, n)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, src := range srcs {
		if _, err := parc.Parse(src); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	const budget = 3 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("parsing 200 corpus programs allocates %d bytes", got)
	if got > budget {
		t.Errorf("parsing 200 corpus programs allocates %d bytes, budget %d", got, budget)
	}
}
