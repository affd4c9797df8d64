// Package parc implements the front end for ParC, a small C-like SPMD
// shared-memory language used as the target-program representation for the
// Cachier reproduction. ParC programs have barrier-delimited epochs, shared
// arrays with optional region labels, locks, and the five CICO annotation
// statements (check_out_x, check_out_s, check_in, prefetch_x, prefetch_s).
//
// The package provides a lexer, a recursive-descent parser producing an AST
// in which every statement carries a unique ID (the simulator reports these
// IDs as "program counters" in traces), a semantic checker, and an unparser
// that regenerates source text — the mechanism Cachier uses to emit the
// annotated program.
package parc

import (
	"fmt"
	"strconv"
)

// Pos is a source position: 1-based line and column, plus the name of the
// file the source came from when it is known (ParseFile stamps it so that
// diagnostics and vet findings print as file:line:col).
type Pos struct {
	File string
	Line int
	Col  int
}

func (p Pos) String() string {
	var buf [64]byte
	b := buf[:0]
	if p.File != "" {
		b = append(append(b, p.File...), ':')
	}
	b = append(strconv.AppendInt(b, int64(p.Line), 10), ':')
	return string(strconv.AppendInt(b, int64(p.Col), 10))
}

// IsValid reports whether the position has been set.
func (p Pos) IsValid() bool { return p.Line > 0 }

// TokKind enumerates lexical token kinds.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokInt
	TokFloat
	TokString

	// Punctuation and operators.
	TokLParen   // (
	TokRParen   // )
	TokLBrace   // {
	TokRBrace   // }
	TokLBracket // [
	TokRBracket // ]
	TokComma    // ,
	TokSemi     // ;
	TokColon    // :
	TokAssign   // =
	TokPlusEq   // +=
	TokMinusEq  // -=
	TokStarEq   // *=
	TokSlashEq  // /=
	TokPlus     // +
	TokMinus    // -
	TokStar     // *
	TokSlash    // /
	TokPercent  // %
	TokEq       // ==
	TokNe       // !=
	TokLt       // <
	TokLe       // <=
	TokGt       // >
	TokGe       // >=
	TokAndAnd   // &&
	TokOrOr     // ||
	TokNot      // !

	// Keywords.
	TokConst
	TokShared
	TokLabel
	TokFunc
	TokVar
	TokIf
	TokElse
	TokWhile
	TokFor
	TokTo
	TokStep
	TokReturn
	TokBarrier
	TokLock
	TokUnlock
	TokPrint
	TokIntType
	TokFloatType
	TokCheckOutX
	TokCheckOutS
	TokCheckIn
	TokPrefetchX
	TokPrefetchS
)

var keywords = map[string]TokKind{
	"const":       TokConst,
	"shared":      TokShared,
	"label":       TokLabel,
	"func":        TokFunc,
	"var":         TokVar,
	"if":          TokIf,
	"else":        TokElse,
	"while":       TokWhile,
	"for":         TokFor,
	"to":          TokTo,
	"step":        TokStep,
	"return":      TokReturn,
	"barrier":     TokBarrier,
	"lock":        TokLock,
	"unlock":      TokUnlock,
	"print":       TokPrint,
	"int":         TokIntType,
	"float":       TokFloatType,
	"check_out_x": TokCheckOutX,
	"check_out_s": TokCheckOutS,
	"check_in":    TokCheckIn,
	"prefetch_x":  TokPrefetchX,
	"prefetch_s":  TokPrefetchS,
}

var tokNames = map[TokKind]string{
	TokEOF:       "end of file",
	TokIdent:     "identifier",
	TokInt:       "integer literal",
	TokFloat:     "float literal",
	TokString:    "string literal",
	TokLParen:    "'('",
	TokRParen:    "')'",
	TokLBrace:    "'{'",
	TokRBrace:    "'}'",
	TokLBracket:  "'['",
	TokRBracket:  "']'",
	TokComma:     "','",
	TokSemi:      "';'",
	TokColon:     "':'",
	TokAssign:    "'='",
	TokPlusEq:    "'+='",
	TokMinusEq:   "'-='",
	TokStarEq:    "'*='",
	TokSlashEq:   "'/='",
	TokPlus:      "'+'",
	TokMinus:     "'-'",
	TokStar:      "'*'",
	TokSlash:     "'/'",
	TokPercent:   "'%'",
	TokEq:        "'=='",
	TokNe:        "'!='",
	TokLt:        "'<'",
	TokLe:        "'<='",
	TokGt:        "'>'",
	TokGe:        "'>='",
	TokAndAnd:    "'&&'",
	TokOrOr:      "'||'",
	TokNot:       "'!'",
	TokConst:     "'const'",
	TokShared:    "'shared'",
	TokLabel:     "'label'",
	TokFunc:      "'func'",
	TokVar:       "'var'",
	TokIf:        "'if'",
	TokElse:      "'else'",
	TokWhile:     "'while'",
	TokFor:       "'for'",
	TokTo:        "'to'",
	TokStep:      "'step'",
	TokReturn:    "'return'",
	TokBarrier:   "'barrier'",
	TokLock:      "'lock'",
	TokUnlock:    "'unlock'",
	TokPrint:     "'print'",
	TokIntType:   "'int'",
	TokFloatType: "'float'",
	TokCheckOutX: "'check_out_x'",
	TokCheckOutS: "'check_out_s'",
	TokCheckIn:   "'check_in'",
	TokPrefetchX: "'prefetch_x'",
	TokPrefetchS: "'prefetch_s'",
}

func (k TokKind) String() string {
	if s, ok := tokNames[k]; ok {
		return s
	}
	return fmt.Sprintf("token(%d)", int(k))
}

// Token is a single lexical token.
type Token struct {
	Kind TokKind
	Pos  Pos
	Text string // raw text for idents, literals, strings (unquoted)
}

func (t Token) String() string {
	switch t.Kind {
	case TokIdent, TokInt, TokFloat:
		return t.Text
	case TokString:
		return fmt.Sprintf("%q", t.Text)
	}
	return t.Kind.String()
}
