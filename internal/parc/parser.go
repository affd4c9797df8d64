package parc

import (
	"fmt"
	"strconv"
	"sync/atomic"
)

// Parser is a recursive-descent parser for ParC. The grammar needs one token
// of lookahead, so it pulls from the lexer and builds no token slice.
type Parser struct {
	lex    *Lexer
	tok    Token // the lookahead
	lexErr error // the lexer's error; tok is TokEOF from then on
	prog   *Program
}

// Parse parses a complete ParC program and runs the semantic checker.
func Parse(src string) (*Program, error) {
	return ParseFile("", src)
}

// ParseFile parses src like Parse, recording file as the source file name:
// every statement position, checker diagnostic, and downstream vet finding
// then prints as file:line:col.
func ParseFile(file, src string) (*Program, error) {
	parses.Add(1)
	p := &Parser{lex: NewLexerFile(file, src), prog: &Program{File: file}}
	p.advance()
	err := p.parseProgram()
	// A malformed token anywhere is reported in preference to a syntax
	// error, even one that precedes it: lex what the parser left.
	for err != nil && p.tok.Kind != TokEOF {
		p.advance()
	}
	if p.lexErr != nil {
		err = p.lexErr
	}
	if err == nil {
		err = Check(p.prog)
	}
	if err != nil {
		return nil, err
	}
	return p.prog, nil
}

var parses atomic.Uint64

// Parses returns how many sources this process has parsed: a work counter,
// the same on every host, for tests that pin how often a pipeline parses.
func Parses() uint64 { return parses.Load() }

// MustParse parses src and panics on error; for tests and embedded
// benchmark sources that are known to be valid.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(fmt.Sprintf("parc.MustParse: %v", err))
	}
	return prog
}

// stmtAt allocates the next statement ID for a statement at pos. IDs follow
// parse order, which is source order.
func (p *Parser) stmtAt(pos Pos) stmtInfo {
	id := p.prog.nextID
	p.prog.nextID++
	return stmtInfo{id: id, pos: pos}
}

// advance pulls the next token. A lexer error ends the stream: the parser
// sees EOF and stops, and ParseFile reports lexErr.
func (p *Parser) advance() {
	tok, err := p.lex.Next()
	if err != nil {
		p.lexErr = err
		tok = Token{Kind: TokEOF, Pos: p.tok.Pos}
	}
	p.tok = tok
}

func (p *Parser) cur() Token  { return p.tok }
func (p *Parser) next() Token { t := p.tok; p.advance(); return t }

func (p *Parser) at(k TokKind) bool { return p.cur().Kind == k }

func (p *Parser) accept(k TokKind) bool {
	if p.at(k) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expect(k TokKind) (Token, error) {
	t := p.cur()
	if t.Kind != k {
		return t, &Error{Pos: t.Pos, Msg: fmt.Sprintf("expected %s, found %s", k, t)}
	}
	p.advance()
	return t, nil
}

func (p *Parser) errorf(pos Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) parseProgram() error {
	for !p.at(TokEOF) {
		switch p.cur().Kind {
		case TokConst:
			d, err := p.parseConstDecl()
			if err != nil {
				return err
			}
			p.prog.Consts = append(p.prog.Consts, d)
		case TokShared:
			d, err := p.parseSharedDecl()
			if err != nil {
				return err
			}
			p.prog.Shareds = append(p.prog.Shareds, d)
		case TokFunc:
			d, err := p.parseFuncDecl()
			if err != nil {
				return err
			}
			p.prog.Funcs = append(p.prog.Funcs, d)
		default:
			return p.errorf(p.cur().Pos, "expected declaration, found %s", p.cur())
		}
	}
	return nil
}

func (p *Parser) parseConstDecl() (*ConstDecl, error) {
	kw, _ := p.expect(TokConst)
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokAssign); err != nil {
		return nil, err
	}
	// Constant expressions are evaluated during Check, so that constants may
	// reference earlier constants.
	expr, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return &ConstDecl{Pos: kw.Pos, Name: name.Text, Expr: expr}, nil
}

func (p *Parser) parseBaseType() (BaseType, error) {
	switch {
	case p.accept(TokIntType):
		return IntType, nil
	case p.accept(TokFloatType):
		return FloatType, nil
	}
	return 0, p.errorf(p.cur().Pos, "expected type, found %s", p.cur())
}

func (p *Parser) parseSharedDecl() (*SharedDecl, error) {
	kw, _ := p.expect(TokShared)
	base, err := p.parseBaseType()
	if err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	d := &SharedDecl{Pos: kw.Pos, Name: name.Text, Base: base}
	for p.accept(TokLBracket) {
		dim, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRBracket); err != nil {
			return nil, err
		}
		d.Dims = append(d.Dims, dim)
	}
	if p.accept(TokLabel) {
		s, err := p.expect(TokString)
		if err != nil {
			return nil, err
		}
		d.Label = s.Text
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *Parser) parseFuncDecl() (*FuncDecl, error) {
	kw, _ := p.expect(TokFunc)
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	f := &FuncDecl{Pos: kw.Pos, Name: name.Text}
	for !p.at(TokRParen) {
		if len(f.Params) > 0 {
			if _, err := p.expect(TokComma); err != nil {
				return nil, err
			}
		}
		pn, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		bt, err := p.parseBaseType()
		if err != nil {
			return nil, err
		}
		f.Params = append(f.Params, Param{Name: pn.Text, Base: bt})
	}
	p.next() // ')'
	if p.at(TokIntType) || p.at(TokFloatType) {
		bt, _ := p.parseBaseType()
		f.Result = &bt
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	f.Body = body
	return f, nil
}

func (p *Parser) parseBlock() (*Block, error) {
	lb, err := p.expect(TokLBrace)
	if err != nil {
		return nil, err
	}
	b := &Block{stmtInfo: p.stmtAt(lb.Pos)}
	for !p.at(TokRBrace) {
		if p.at(TokEOF) {
			return nil, p.errorf(lb.Pos, "unclosed block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.next() // '}'
	return b, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch t.Kind {
	case TokLBrace:
		return p.parseBlock()
	case TokVar:
		return p.parseVarDecl()
	case TokIf:
		return p.parseIf()
	case TokWhile:
		return p.parseWhile()
	case TokFor:
		return p.parseFor()
	case TokBarrier:
		p.next()
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &BarrierStmt{p.stmtAt(t.Pos)}, nil
	case TokLock, TokUnlock:
		p.next()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		info := p.stmtAt(t.Pos)
		if t.Kind == TokLock {
			return &LockStmt{stmtInfo: info, LockID: e}, nil
		}
		return &UnlockStmt{stmtInfo: info, LockID: e}, nil
	case TokReturn:
		p.next()
		r := &ReturnStmt{stmtInfo: p.stmtAt(t.Pos)}
		if !p.at(TokSemi) {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			r.Value = e
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return r, nil
	case TokPrint:
		return p.parsePrint()
	case TokCheckOutX, TokCheckOutS, TokCheckIn, TokPrefetchX, TokPrefetchS:
		return p.parseCICO()
	case TokIdent:
		return p.parseAssignOrCall()
	}
	return nil, p.errorf(t.Pos, "expected statement, found %s", t)
}

func (p *Parser) parseVarDecl() (Stmt, error) {
	kw, _ := p.expect(TokVar)
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	base, err := p.parseBaseType()
	if err != nil {
		return nil, err
	}
	d := &VarDeclStmt{stmtInfo: p.stmtAt(kw.Pos), Name: name.Text, Base: base}
	for p.accept(TokLBracket) {
		dim, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRBracket); err != nil {
			return nil, err
		}
		d.Dims = append(d.Dims, dim)
	}
	if p.accept(TokAssign) {
		if len(d.Dims) > 0 {
			return nil, p.errorf(kw.Pos, "array variable %q cannot have an initializer", d.Name)
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Init = e
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *Parser) parseIf() (Stmt, error) {
	kw, _ := p.expect(TokIf)
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	s := &IfStmt{stmtInfo: p.stmtAt(kw.Pos), Cond: cond}
	s.Then, err = p.parseBlock()
	if err != nil {
		return nil, err
	}
	if p.accept(TokElse) {
		if p.at(TokIf) {
			s.Else, err = p.parseIf()
		} else {
			s.Else, err = p.parseBlock()
		}
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (p *Parser) parseWhile() (Stmt, error) {
	kw, _ := p.expect(TokWhile)
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	// Allocate the statement's ID before parsing the body so that IDs are
	// ordered outer-before-inner, as elsewhere.
	s := &WhileStmt{stmtInfo: p.stmtAt(kw.Pos), Cond: cond}
	s.Body, err = p.parseBlock()
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (p *Parser) parseFor() (Stmt, error) {
	kw, _ := p.expect(TokFor)
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokAssign); err != nil {
		return nil, err
	}
	from, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokTo); err != nil {
		return nil, err
	}
	to, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	s := &ForStmt{stmtInfo: p.stmtAt(kw.Pos), Var: name.Text, From: from, To: to}
	if p.accept(TokStep) {
		s.Step, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	s.Body, err = p.parseBlock()
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (p *Parser) parsePrint() (Stmt, error) {
	kw, _ := p.expect(TokPrint)
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	f, err := p.expect(TokString)
	if err != nil {
		return nil, err
	}
	s := &PrintStmt{stmtInfo: p.stmtAt(kw.Pos), Format: f.Text}
	for p.accept(TokComma) {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Args = append(s.Args, e)
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return s, nil
}

func (p *Parser) parseCICO() (Stmt, error) {
	t := p.next()
	var kind AnnKind
	switch t.Kind {
	case TokCheckOutX:
		kind = AnnCheckOutX
	case TokCheckOutS:
		kind = AnnCheckOutS
	case TokCheckIn:
		kind = AnnCheckIn
	case TokPrefetchX:
		kind = AnnPrefetchX
	case TokPrefetchS:
		kind = AnnPrefetchS
	}
	ref, err := p.parseRangeRef()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return &CICOStmt{stmtInfo: p.stmtAt(t.Pos), Kind: kind, Target: ref}, nil
}

func (p *Parser) parseRangeRef() (*RangeRef, error) {
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	ref := &RangeRef{Pos: name.Pos, Name: name.Text}
	for p.accept(TokLBracket) {
		lo, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		idx := RangeIndex{Lo: lo}
		if p.accept(TokColon) {
			idx.Hi, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(TokRBracket); err != nil {
			return nil, err
		}
		ref.Indices = append(ref.Indices, idx)
	}
	return ref, nil
}

func (p *Parser) parseAssignOrCall() (Stmt, error) {
	name := p.next() // identifier
	if p.at(TokLParen) {
		call, err := p.parseCallTail(name)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &ExprStmt{stmtInfo: p.stmtAt(name.Pos), Call: call}, nil
	}
	lv := &LValue{Pos: name.Pos, Name: name.Text}
	for p.accept(TokLBracket) {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRBracket); err != nil {
			return nil, err
		}
		lv.Indices = append(lv.Indices, e)
	}
	var op AssignOp
	switch p.cur().Kind {
	case TokAssign:
		op = OpSet
	case TokPlusEq:
		op = OpAdd
	case TokMinusEq:
		op = OpSub
	case TokStarEq:
		op = OpMul
	case TokSlashEq:
		op = OpDiv
	default:
		return nil, p.errorf(p.cur().Pos, "expected assignment operator, found %s", p.cur())
	}
	p.next()
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return &AssignStmt{stmtInfo: p.stmtAt(name.Pos), LHS: lv, Op: op, RHS: rhs}, nil
}

func (p *Parser) parseCallTail(name Token) (*CallExpr, error) {
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	call := &CallExpr{exprInfo: exprInfo{pos: name.Pos}, Name: name.Text}
	for !p.at(TokRParen) {
		if len(call.Args) > 0 {
			if _, err := p.expect(TokComma); err != nil {
				return nil, err
			}
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		call.Args = append(call.Args, e)
	}
	p.next() // ')'
	return call, nil
}

// Expression parsing with precedence climbing.

var binPrec = map[TokKind]int{
	TokOrOr:    1,
	TokAndAnd:  2,
	TokEq:      3,
	TokNe:      3,
	TokLt:      4,
	TokLe:      4,
	TokGt:      4,
	TokGe:      4,
	TokPlus:    5,
	TokMinus:   5,
	TokStar:    6,
	TokSlash:   6,
	TokPercent: 6,
}

func (p *Parser) parseExpr() (Expr, error) { return p.parseBinary(1) }

func (p *Parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		prec, ok := binPrec[p.cur().Kind]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		op := p.next()
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &BinaryExpr{exprInfo: exprInfo{pos: op.Pos}, Op: op.Kind, X: lhs, Y: rhs}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	t := p.cur()
	if t.Kind == TokMinus || t.Kind == TokNot {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{exprInfo: exprInfo{pos: t.Pos}, Op: t.Kind, X: x}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokInt:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf(t.Pos, "bad integer literal %q", t.Text)
		}
		return &IntLit{exprInfo: exprInfo{pos: t.Pos}, Value: v}, nil
	case TokFloat:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errorf(t.Pos, "bad float literal %q", t.Text)
		}
		return &FloatLit{exprInfo: exprInfo{pos: t.Pos}, Value: v}, nil
	case TokLParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case TokIntType, TokFloatType:
		// Conversion calls: int(x), float(x). The type keywords double as
		// builtin conversion functions.
		p.next()
		name := Token{Kind: TokIdent, Pos: t.Pos, Text: "int"}
		if t.Kind == TokFloatType {
			name.Text = "float"
		}
		return p.parseCallTail(name)
	case TokIdent:
		p.next()
		if p.at(TokLParen) {
			return p.parseCallTail(t)
		}
		if p.at(TokLBracket) {
			ix := &IndexExpr{exprInfo: exprInfo{pos: t.Pos}, Name: t.Text}
			for p.accept(TokLBracket) {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(TokRBracket); err != nil {
					return nil, err
				}
				ix.Indices = append(ix.Indices, e)
			}
			return ix, nil
		}
		return &VarRef{exprInfo: exprInfo{pos: t.Pos}, Name: t.Text}, nil
	}
	return nil, p.errorf(t.Pos, "expected expression, found %s", t)
}
