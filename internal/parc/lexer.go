package parc

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Error is a front-end error with a source position.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string {
	if e.Pos.IsValid() {
		return fmt.Sprintf("%s: %s", e.Pos, e.Msg)
	}
	return e.Msg
}

// Lexer turns ParC source text into tokens. Line comments run from "//" to
// end of line; block comments run from "/*" to "*/" (Cachier emits its data
// race and false sharing flags as block comments). Whitespace is
// insignificant.
type Lexer struct {
	src  string
	file string
	off  int
	line int
	col  int
}

// NewLexerFile returns a lexer over src whose token positions carry file as
// their file name.
func NewLexerFile(file, src string) *Lexer {
	return &Lexer{src: src, file: file, line: 1, col: 1}
}

func (l *Lexer) errorf(pos Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) pos() Pos { return Pos{File: l.file, Line: l.line, Col: l.col} }

func (l *Lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			l.advance()
			l.advance()
			for l.off < len(l.src) && !(l.peek() == '*' && l.peek2() == '/') {
				l.advance()
			}
			if l.off < len(l.src) {
				l.advance()
				l.advance()
			}
		default:
			return
		}
	}
}

func isLetter(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// Next returns the next token, or an error for malformed input.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	pos := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: TokEOF, Pos: pos}, nil
	}
	c := l.peek()
	switch {
	case isLetter(c):
		start := l.off
		for l.off < len(l.src) && (isLetter(l.peek()) || isDigit(l.peek())) {
			l.advance()
		}
		word := l.src[start:l.off]
		if k, ok := keywords[word]; ok {
			return Token{Kind: k, Pos: pos, Text: word}, nil
		}
		return Token{Kind: TokIdent, Pos: pos, Text: word}, nil
	case isDigit(c):
		start := l.off
		kind := TokInt
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
		if l.peek() == '.' && isDigit(l.peek2()) {
			kind = TokFloat
			l.advance()
			for l.off < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
		}
		if l.peek() == 'e' || l.peek() == 'E' {
			save := l.off
			l.advance()
			if l.peek() == '+' || l.peek() == '-' {
				l.advance()
			}
			if isDigit(l.peek()) {
				kind = TokFloat
				for l.off < len(l.src) && isDigit(l.peek()) {
					l.advance()
				}
			} else {
				l.off = save // not an exponent; leave 'e' for the next token
			}
		}
		return Token{Kind: kind, Pos: pos, Text: l.src[start:l.off]}, nil
	case c == '"':
		l.advance()
		var sb strings.Builder
		for {
			if l.off >= len(l.src) {
				return Token{}, l.errorf(pos, "unterminated string literal")
			}
			ch := l.advance()
			if ch == '"' {
				break
			}
			if ch == '\n' {
				return Token{}, l.errorf(pos, "newline in string literal")
			}
			if ch == '\\' {
				if l.off >= len(l.src) {
					return Token{}, l.errorf(pos, "unterminated string literal")
				}
				esc := l.advance()
				switch esc {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case '\\', '"':
					sb.WriteByte(esc)
				default:
					return Token{}, l.errorf(pos, "unknown escape '\\%c'", esc)
				}
				continue
			}
			sb.WriteByte(ch)
		}
		return Token{Kind: TokString, Pos: pos, Text: sb.String()}, nil
	}

	two := func(second byte, with, without TokKind) Token {
		l.advance()
		if l.peek() == second {
			l.advance()
			return Token{Kind: with, Pos: pos}
		}
		return Token{Kind: without, Pos: pos}
	}

	switch c {
	case '(':
		l.advance()
		return Token{Kind: TokLParen, Pos: pos}, nil
	case ')':
		l.advance()
		return Token{Kind: TokRParen, Pos: pos}, nil
	case '{':
		l.advance()
		return Token{Kind: TokLBrace, Pos: pos}, nil
	case '}':
		l.advance()
		return Token{Kind: TokRBrace, Pos: pos}, nil
	case '[':
		l.advance()
		return Token{Kind: TokLBracket, Pos: pos}, nil
	case ']':
		l.advance()
		return Token{Kind: TokRBracket, Pos: pos}, nil
	case ',':
		l.advance()
		return Token{Kind: TokComma, Pos: pos}, nil
	case ';':
		l.advance()
		return Token{Kind: TokSemi, Pos: pos}, nil
	case ':':
		l.advance()
		return Token{Kind: TokColon, Pos: pos}, nil
	case '=':
		return two('=', TokEq, TokAssign), nil
	case '+':
		return two('=', TokPlusEq, TokPlus), nil
	case '-':
		return two('=', TokMinusEq, TokMinus), nil
	case '*':
		return two('=', TokStarEq, TokStar), nil
	case '/':
		return two('=', TokSlashEq, TokSlash), nil
	case '%':
		l.advance()
		return Token{Kind: TokPercent, Pos: pos}, nil
	case '<':
		return two('=', TokLe, TokLt), nil
	case '>':
		return two('=', TokGe, TokGt), nil
	case '!':
		return two('=', TokNe, TokNot), nil
	case '&':
		l.advance()
		if l.peek() == '&' {
			l.advance()
			return Token{Kind: TokAndAnd, Pos: pos}, nil
		}
		return Token{}, l.errorf(pos, "unexpected '&'")
	case '|':
		l.advance()
		if l.peek() == '|' {
			l.advance()
			return Token{Kind: TokOrOr, Pos: pos}, nil
		}
		return Token{}, l.errorf(pos, "unexpected '|'")
	}
	_, size := utf8.DecodeRuneInString(l.src[l.off:])
	return Token{}, l.errorf(pos, "unexpected character %q", l.src[l.off:l.off+size])
}

// Tokenize lexes the whole input, returning the token stream including the
// trailing EOF token. The parser does not use it: it pulls from a Lexer.
func Tokenize(src string) ([]Token, error) {
	l := NewLexerFile("", src)
	var toks []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}
