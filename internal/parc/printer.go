package parc

import (
	"bytes"
	"fmt"
	"strconv"
)

// Print unparses a program back to ParC source text. The output re-parses to
// an equivalent program (modulo statement IDs and positions).
func Print(p *Program) string { return PrintEdited(p, nil) }

// PrintEdited prints p as Print does, except that every block in edits
// prints the statement list it maps to in place of its own. Cachier emits
// annotated programs this way: it splices its statements into the lists at
// print time and never modifies the checked program, which other runs may
// be executing. The text is appended into one buffer sized for about 40
// bytes a statement or declaration.
func PrintEdited(p *Program, edits map[*Block][]Stmt) string {
	pr := printer{edits: edits, b: make([]byte, 0, 40*(p.NumStmts()+len(p.Consts)+len(p.Shareds))+64)}
	for _, d := range p.Consts {
		pr.put("const ", d.Name, " = ")
		pr.expr(d.Expr, ";\n")
	}
	if len(p.Consts) > 0 {
		pr.put("\n")
	}
	for _, d := range p.Shareds {
		pr.put("shared ", d.Base.String(), " ", d.Name)
		pr.b = appendIndices(pr.b, d.Dims)
		if d.Label != "" {
			pr.put(" label ")
			pr.b = appendQuote(pr.b, d.Label)
		}
		pr.put(";\n")
	}
	if len(p.Shareds) > 0 {
		pr.put("\n")
	}
	for i, f := range p.Funcs {
		if i > 0 {
			pr.put("\n")
		}
		pr.printFunc(f)
	}
	return string(pr.b)
}

type printer struct {
	b      []byte
	indent int
	edits  map[*Block][]Stmt
}

func (pr *printer) put(ss ...string) {
	for _, s := range ss {
		pr.b = append(pr.b, s...)
	}
}

// expr appends e's text, then ss.
func (pr *printer) expr(e Expr, ss ...string) {
	pr.b = appendExpr(pr.b, e, 0)
	pr.put(ss...)
}

// opt appends pre and e's text, if there is an e.
func (pr *printer) opt(pre string, e Expr) {
	if e != nil {
		pr.put(pre)
		pr.expr(e)
	}
}

// start begins a line at the current indentation and writes ss.
func (pr *printer) start(ss ...string) {
	for i := 0; i < pr.indent; i++ {
		pr.b = append(pr.b, "    "...)
	}
	pr.put(ss...)
}

// block prints " {", the block's body one level in, and the closing line.
func (pr *printer) block(b *Block) {
	pr.put(" {\n")
	pr.body(b)
	pr.start("}\n")
}

// body prints a block's statements one level in: the list edits maps it to,
// if any, else its own.
func (pr *printer) body(b *Block) {
	stmts, ok := pr.edits[b]
	if !ok {
		stmts = b.Stmts
	}
	pr.indent++
	for _, s := range stmts {
		pr.printStmt(s)
	}
	pr.indent--
}

func (pr *printer) printFunc(f *FuncDecl) {
	pr.start("func ", f.Name, "(")
	sep := ""
	for _, p := range f.Params {
		pr.put(sep, p.Name, " ", p.Base.String())
		sep = ", "
	}
	pr.put(")")
	if f.Result != nil {
		pr.put(" ", f.Result.String())
	}
	pr.block(f.Body)
}

func (pr *printer) printStmt(s Stmt) {
	switch n := s.(type) {
	case *Block:
		pr.start("{\n")
		pr.body(n)
		pr.start("}\n")
	case *VarDeclStmt:
		pr.start("var ", n.Name, " ", n.Base.String())
		pr.b = appendIndices(pr.b, n.Dims)
		pr.opt(" = ", n.Init)
		pr.put(";\n")
	case *AssignStmt:
		pr.start()
		pr.b = appendLValue(pr.b, n.LHS)
		pr.put(" ", n.Op.String(), " ")
		pr.expr(n.RHS, ";\n")
	case *IfStmt:
		pr.start("if ")
		pr.printIf(n)
	case *WhileStmt:
		pr.start("while ")
		pr.expr(n.Cond)
		pr.block(n.Body)
	case *ForStmt:
		pr.start("for ", n.Var, " = ")
		pr.expr(n.From, " to ")
		pr.expr(n.To)
		pr.opt(" step ", n.Step)
		pr.block(n.Body)
	case *BarrierStmt:
		pr.start("barrier;\n")
	case *LockStmt:
		pr.start("lock(")
		pr.expr(n.LockID, ");\n")
	case *UnlockStmt:
		pr.start("unlock(")
		pr.expr(n.LockID, ");\n")
	case *ReturnStmt:
		pr.start("return")
		pr.opt(" ", n.Value)
		pr.put(";\n")
	case *ExprStmt:
		pr.start()
		pr.expr(n.Call, ";\n")
	case *PrintStmt:
		pr.start("print(")
		pr.b = appendQuote(pr.b, n.Format)
		for _, a := range n.Args {
			pr.put(", ")
			pr.expr(a)
		}
		pr.put(");\n")
	case *CICOStmt:
		pr.start(n.Kind.String(), " ")
		pr.b = appendRangeRef(pr.b, n.Target)
		pr.put(";\n")
	case *CommentStmt:
		pr.start("/*** ", n.Text, " ***/\n")
	default:
		pr.start()
		pr.b = fmt.Appendf(pr.b, "/* unprintable statement %T */\n", s)
	}
}

// printIf prints an if statement after its "if "; an else-if continues the
// "} else " line its parent began instead of starting an indented one.
func (pr *printer) printIf(n *IfStmt) {
	pr.expr(n.Cond, " {\n")
	pr.body(n.Then)
	switch e := n.Else.(type) {
	case nil:
		pr.start("}\n")
	case *IfStmt:
		pr.start("} else if ")
		pr.printIf(e)
	case *Block:
		pr.start("} else")
		pr.block(e)
	}
}

// Quote renders s as a ParC string literal. It must emit only the escape
// sequences the lexer understands (\n, \t, \\, \") and pass every other byte
// through raw: Go's %q would produce escapes like \r or \x00 that ParC's
// lexer rejects, even though the raw bytes themselves are legal inside a
// ParC string literal. (Found by the conformance round-trip harness.)
func Quote(s string) string { return string(appendQuote(nil, s)) }

var quoteEscape = [256]string{'\n': `\n`, '\t': `\t`, '\\': `\\`, '"': `\"`}

func appendQuote(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		if esc := quoteEscape[s[i]]; esc != "" {
			b = append(b, esc...)
		} else {
			b = append(b, s[i])
		}
	}
	return append(b, '"')
}

func appendLValue(b []byte, lv *LValue) []byte {
	return appendIndices(append(b, lv.Name...), lv.Indices)
}

// appendIndices appends "[e]" for each expression.
func appendIndices(b []byte, ixs []Expr) []byte {
	for _, ix := range ixs {
		b = append(appendExpr(append(b, '['), ix, 0), ']')
	}
	return b
}

// RangeRefString renders an annotation target such as B[k][lo:hi].
func RangeRefString(r *RangeRef) string { return string(appendRangeRef(nil, r)) }

func appendRangeRef(b []byte, r *RangeRef) []byte {
	b = append(b, r.Name...)
	for _, ix := range r.Indices {
		b = appendExpr(append(b, '['), ix.Lo, 0)
		if ix.Hi != nil {
			b = appendExpr(append(b, ':'), ix.Hi, 0)
		}
		b = append(b, ']')
	}
	return b
}

var opText = map[TokKind]string{
	TokPlus:    "+",
	TokMinus:   "-",
	TokStar:    "*",
	TokSlash:   "/",
	TokPercent: "%",
	TokEq:      "==",
	TokNe:      "!=",
	TokLt:      "<",
	TokLe:      "<=",
	TokGt:      ">",
	TokGe:      ">=",
	TokAndAnd:  "&&",
	TokOrOr:    "||",
	TokNot:     "!",
}

// ExprString renders an expression as source text, parenthesizing only where
// precedence requires.
func ExprString(e Expr) string { return string(appendExpr(nil, e, 0)) }

// appendExpr appends e's text to b. An operator that binds less tightly than
// parentPrec, the precedence its operand slot requires, is parenthesized.
func appendExpr(b []byte, e Expr, parentPrec int) []byte {
	switch n := e.(type) {
	case *IntLit:
		return strconv.AppendInt(b, n.Value, 10)
	case *FloatLit:
		// Go's %g text, with ".0" appended when it reads as an integer.
		start := len(b)
		if b = strconv.AppendFloat(b, n.Value, 'g', -1, 64); !bytes.ContainsAny(b[start:], ".eE") {
			b = append(b, ".0"...)
		}
		return b
	case *VarRef:
		return append(b, n.Name...)
	case *IndexExpr:
		return appendIndices(append(b, n.Name...), n.Indices)
	case *CallExpr:
		b = append(append(b, n.Name...), '(')
		for i, a := range n.Args {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = appendExpr(b, a, 0)
		}
		return append(b, ')')
	case *UnaryExpr:
		const unaryPrec = 7
		if parentPrec > unaryPrec {
			return append(appendExpr(append(b, '('), e, 0), ')')
		}
		return appendExpr(append(b, opText[n.Op]...), n.X, unaryPrec)
	case *BinaryExpr:
		prec := binPrec[n.Op]
		if prec < parentPrec {
			return append(appendExpr(append(b, '('), e, 0), ')')
		}
		b = append(append(append(appendExpr(b, n.X, prec), ' '), opText[n.Op]...), ' ')
		return appendExpr(b, n.Y, prec+1)
	}
	return fmt.Appendf(b, "/* %T */", e)
}
