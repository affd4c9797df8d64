package parc

import (
	"strings"
	"testing"
)

func kinds(toks []Token) []TokKind {
	out := make([]TokKind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestTokenizeBasics(t *testing.T) {
	toks, err := Tokenize("for i = 0 to N - 1 { A[i] = i; }")
	if err != nil {
		t.Fatal(err)
	}
	want := []TokKind{
		TokFor, TokIdent, TokAssign, TokInt, TokTo, TokIdent, TokMinus, TokInt,
		TokLBrace, TokIdent, TokLBracket, TokIdent, TokRBracket, TokAssign,
		TokIdent, TokSemi, TokRBrace, TokEOF,
	}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(got), len(want), toks)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

func TestTokenizeKeywords(t *testing.T) {
	src := "const shared label func var if else while for to step return barrier lock unlock print int float check_out_x check_out_s check_in prefetch_x prefetch_s"
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []TokKind{
		TokConst, TokShared, TokLabel, TokFunc, TokVar, TokIf, TokElse,
		TokWhile, TokFor, TokTo, TokStep, TokReturn, TokBarrier, TokLock,
		TokUnlock, TokPrint, TokIntType, TokFloatType, TokCheckOutX,
		TokCheckOutS, TokCheckIn, TokPrefetchX, TokPrefetchS, TokEOF,
	}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

func TestTokenizeOperators(t *testing.T) {
	src := "== != <= >= < > && || ! = += -= *= /= + - * / % : , ;"
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []TokKind{
		TokEq, TokNe, TokLe, TokGe, TokLt, TokGt, TokAndAnd, TokOrOr, TokNot,
		TokAssign, TokPlusEq, TokMinusEq, TokStarEq, TokSlashEq, TokPlus,
		TokMinus, TokStar, TokSlash, TokPercent, TokColon, TokComma, TokSemi,
		TokEOF,
	}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

func TestTokenizeNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind TokKind
		text string
	}{
		{"42", TokInt, "42"},
		{"0", TokInt, "0"},
		{"3.25", TokFloat, "3.25"},
		{"1e9", TokFloat, "1e9"},
		{"2.5e-3", TokFloat, "2.5e-3"},
		{"1E+4", TokFloat, "1E+4"},
	}
	for _, c := range cases {
		toks, err := Tokenize(c.src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		if toks[0].Kind != c.kind || toks[0].Text != c.text {
			t.Errorf("%q: got (%s, %q), want (%s, %q)", c.src, toks[0].Kind, toks[0].Text, c.kind, c.text)
		}
	}
}

func TestTokenizeNumberThenIdent(t *testing.T) {
	// "1e" without digits is the int 1 followed by identifier e.
	toks, err := Tokenize("1e")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokInt || toks[0].Text != "1" {
		t.Errorf("first token: got (%s, %q)", toks[0].Kind, toks[0].Text)
	}
	if toks[1].Kind != TokIdent || toks[1].Text != "e" {
		t.Errorf("second token: got (%s, %q)", toks[1].Kind, toks[1].Text)
	}
}

func TestTokenizeStrings(t *testing.T) {
	toks, err := Tokenize(`"hello \"x\"\n"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokString {
		t.Fatalf("got %s", toks[0].Kind)
	}
	if toks[0].Text != "hello \"x\"\n" {
		t.Errorf("got %q", toks[0].Text)
	}
}

func TestTokenizeComments(t *testing.T) {
	toks, err := Tokenize("x // comment to end\n// whole line\ny")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 {
		t.Fatalf("got %d tokens: %v", len(toks), toks)
	}
	if toks[0].Text != "x" || toks[1].Text != "y" {
		t.Errorf("got %v", toks)
	}
}

func TestTokenizePositions(t *testing.T) {
	toks, err := Tokenize("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos != (Pos{Line: 1, Col: 1}) {
		t.Errorf("a at %v", toks[0].Pos)
	}
	if toks[1].Pos != (Pos{Line: 2, Col: 3}) {
		t.Errorf("b at %v", toks[1].Pos)
	}
}

func TestTokenizeErrors(t *testing.T) {
	cases := []string{`"unterminated`, `"bad \q escape"`, "@", "&x", "|x", "\"line\nbreak\"", "x /* open", "x /*/"}
	for _, src := range cases {
		_, err := Tokenize(src)
		if err == nil {
			t.Errorf("%q: expected error", src)
			continue
		}
		if _, derr := Digest(src); derr == nil || derr.Error() != err.Error() {
			t.Errorf("%q: Digest error %v, Tokenize error %v", src, derr, err)
		}
	}
	// An unclosed block comment is reported where it opens.
	if _, err := Tokenize("x\n  /* forgot to close\ny = 1;\n"); err == nil || err.Error() != "2:3: unterminated block comment" {
		t.Errorf("unclosed block comment: %v, want 2:3", err)
	}
}

func TestErrorIncludesPosition(t *testing.T) {
	_, err := Tokenize("x @")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "1:3") {
		t.Errorf("error %q does not mention position 1:3", err)
	}
}
