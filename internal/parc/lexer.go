package parc

import (
	"crypto/sha256"
	"encoding/binary"
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
// race and false sharing flags as block comments), and one left open is an
// error. Whitespace is insignificant.
//
// The lexer has two layers. scan finds the next token's span and kind by
// offset alone; Next layers positions, keywords and string unescaping on
// top of it, and Digest hashes the spans with neither.
type Lexer struct {
	src  string
	file string
	off  int
	// Positions are derived from offsets: lineOff is the offset posAt last
	// reached, line the line it lies on, and lineStart where that line
	// starts.
	line      int
	lineStart int
	lineOff   int
}

// NewLexerFile returns a lexer over src whose token positions carry file as
// their file name.
func NewLexerFile(file, src string) *Lexer {
	return &Lexer{src: src, file: file, line: 1}
}

// posAt returns the position of offset off, which must not precede the
// offset of the previous call.
func (l *Lexer) posAt(off int) Pos {
	seg := l.src[l.lineOff:off]
	if n := strings.Count(seg, "\n"); n > 0 {
		l.line += n
		l.lineStart = l.lineOff + strings.LastIndexByte(seg, '\n') + 1
	}
	l.lineOff = off
	return Pos{File: l.file, Line: l.line, Col: off - l.lineStart + 1}
}

// class holds each byte's lexical class: space, letter or digit bits.
var class = func() (t [256]uint8) {
	for c := range 256 {
		switch {
		case strings.IndexByte(" \t\r\n", byte(c)) >= 0:
			t[c] = space
		case c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z':
			t[c] = letter
		case '0' <= c && c <= '9':
			t[c] = digit
		}
	}
	return t
}()

const (
	space = 1 << iota
	letter
	digit
)

func isLetter(c byte) bool { return class[c]&letter != 0 }

func isDigit(c byte) bool { return class[c]&digit != 0 }

// scan skips space and comments from offset i of src, then scans one token.
// It returns the token's kind, which is TokIdent for every word, keyword or
// not, and TokEOF at the end of the input, and the offsets it starts at and
// ends before. For malformed input it returns a message instead, the offset
// of the token or comment at fault, and the offset to resume from.
func scan(src string, i int) (kind TokKind, start, end int, msg string) {
skip:
	for i < len(src) {
		switch c := src[i]; {
		case class[c]&space != 0:
			i++
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			if j := strings.IndexByte(src[i:], '\n'); j >= 0 {
				i += j
			} else {
				i = len(src)
			}
		case c == '/' && i+1 < len(src) && src[i+1] == '*':
			j := strings.Index(src[i+2:], "*/")
			if j < 0 {
				return TokEOF, i, len(src), "unterminated block comment"
			}
			i += j + 4
		default:
			break skip
		}
	}
	start = i
	if i >= len(src) {
		return TokEOF, start, i, ""
	}
	next := func(i int) byte {
		if i < len(src) {
			return src[i]
		}
		return 0
	}
	c := src[i]
	switch {
	case isLetter(c):
		for i++; i < len(src) && class[src[i]]&(letter|digit) != 0; i++ {
		}
		return TokIdent, start, i, ""
	case isDigit(c):
		kind = TokInt
		for i < len(src) && isDigit(src[i]) {
			i++
		}
		if next(i) == '.' && isDigit(next(i+1)) {
			kind = TokFloat
			for i++; i < len(src) && isDigit(src[i]); i++ {
			}
		}
		if e := next(i); e == 'e' || e == 'E' {
			j := i + 1
			if s := next(j); s == '+' || s == '-' {
				j++
			}
			if isDigit(next(j)) { // else not an exponent: 'e' is the next token
				kind = TokFloat
				for i = j; i < len(src) && isDigit(src[i]); i++ {
				}
			}
		}
		return kind, start, i, ""
	case c == '"':
		for i++; ; {
			if i >= len(src) {
				return TokEOF, start, i, "unterminated string literal"
			}
			ch := src[i]
			i++
			switch ch {
			case '"':
				return TokString, start, i, ""
			case '\n':
				return TokEOF, start, i, "newline in string literal"
			case '\\':
				if i >= len(src) {
					return TokEOF, start, i, "unterminated string literal"
				}
				esc := src[i]
				i++
				if esc != 'n' && esc != 't' && esc != '\\' && esc != '"' {
					return TokEOF, start, i, fmt.Sprintf("unknown escape '\\%c'", esc)
				}
			}
		}
	}

	// Punctuation: with is the kind when followed by '=', n the length.
	with, n := TokEOF, 1
	switch c {
	case '(':
		kind = TokLParen
	case ')':
		kind = TokRParen
	case '{':
		kind = TokLBrace
	case '}':
		kind = TokRBrace
	case '[':
		kind = TokLBracket
	case ']':
		kind = TokRBracket
	case ',':
		kind = TokComma
	case ';':
		kind = TokSemi
	case ':':
		kind = TokColon
	case '%':
		kind = TokPercent
	case '=':
		kind, with = TokAssign, TokEq
	case '+':
		kind, with = TokPlus, TokPlusEq
	case '-':
		kind, with = TokMinus, TokMinusEq
	case '*':
		kind, with = TokStar, TokStarEq
	case '/':
		kind, with = TokSlash, TokSlashEq
	case '<':
		kind, with = TokLt, TokLe
	case '>':
		kind, with = TokGt, TokGe
	case '!':
		kind, with = TokNot, TokNe
	case '&', '|':
		if next(i+1) != c {
			return TokEOF, start, i + 1, fmt.Sprintf("unexpected '%c'", c)
		}
		kind, n = TokAndAnd, 2
		if c == '|' {
			kind = TokOrOr
		}
	default:
		_, size := utf8.DecodeRuneInString(src[i:])
		return TokEOF, start, i, fmt.Sprintf("unexpected character %q", src[i:i+size])
	}
	if with != TokEOF && next(i+1) == '=' {
		kind, n = with, 2
	}
	return kind, start, i + n, ""
}

// Next returns the next token, or an error for malformed input.
func (l *Lexer) Next() (Token, error) {
	kind, start, end, msg := scan(l.src, l.off)
	l.off = end
	pos := l.posAt(start)
	if msg != "" {
		return Token{}, &Error{Pos: pos, Msg: msg}
	}
	switch kind {
	case TokIdent:
		word := l.src[start:end]
		if k, ok := keywords[word]; ok {
			kind = k
		}
		return Token{Kind: kind, Pos: pos, Text: word}, nil
	case TokInt, TokFloat:
		return Token{Kind: kind, Pos: pos, Text: l.src[start:end]}, nil
	case TokString:
		return Token{Kind: kind, Pos: pos, Text: unescape(l.src[start+1 : end-1])}, nil
	}
	return Token{Kind: kind, Pos: pos}, nil
}

// unescape returns the value of a string literal's body, which scan has
// checked holds only the escapes \n, \t, \\ and \".
func unescape(s string) string {
	if strings.IndexByte(s, '\\') < 0 {
		return s
	}
	b := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '\\' {
			i++
			switch c = s[i]; c {
			case 'n':
				c = '\n'
			case 't':
				c = '\t'
			}
		}
		b = append(b, c)
	}
	return string(b)
}

// Digest returns the sha256 of src's token stream. Each token is written as
// scan's kind tag and, for a word, number or string literal, the length of
// its source text as a uvarint and the text (a string literal's with its
// quotes and escapes): a length prefix and not a separator, since a string
// literal may hold any byte. Positions, whitespace and comments do not
// enter it, so two texts that differ only in those have one digest, and
// equal digests mean equal token kinds and texts. It fails exactly when
// Tokenize does, with the same error.
func Digest(src string) ([sha256.Size]byte, error) {
	h := sha256.New()
	var buf [512]byte
	n := 0
	for off := 0; ; {
		kind, start, end, msg := scan(src, off)
		off = end
		if msg != "" {
			return [sha256.Size]byte{}, &Error{Pos: NewLexerFile("", src).posAt(start), Msg: msg}
		}
		if kind == TokEOF {
			break
		}
		if n+1+binary.MaxVarintLen64 > len(buf) {
			h.Write(buf[:n])
			n = 0
		}
		buf[n] = byte(kind)
		n++
		if kind > TokString { // punctuation: the kind is the text
			continue
		}
		text := src[start:end]
		n = len(binary.AppendUvarint(buf[:n], uint64(len(text))))
		for len(text) > 0 {
			if n == len(buf) {
				h.Write(buf[:n])
				n = 0
			}
			c := copy(buf[n:], text)
			n += c
			text = text[c:]
		}
	}
	h.Write(buf[:n])
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum, nil
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
