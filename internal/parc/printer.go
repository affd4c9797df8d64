package parc

import (
	"fmt"
	"strings"
)

// Print unparses a program back to ParC source text. The output re-parses to
// an equivalent program (modulo statement IDs and positions).
func Print(p *Program) string { return PrintEdited(p, nil) }

// PrintEdited prints p as Print does, except that every block in edits
// prints the statement list it maps to in place of its own. Cachier emits
// annotated programs this way: it splices its statements into the lists at
// print time and never modifies the checked program, which other runs may
// be executing.
func PrintEdited(p *Program, edits map[*Block][]Stmt) string {
	pr := &printer{edits: edits}
	for _, d := range p.Consts {
		pr.printf("const %s = %s;\n", d.Name, ExprString(d.Expr))
	}
	if len(p.Consts) > 0 {
		pr.nl()
	}
	for _, d := range p.Shareds {
		pr.printf("shared %s %s", d.Base, d.Name)
		for _, dim := range d.Dims {
			pr.printf("[%s]", ExprString(dim))
		}
		if d.Label != "" {
			pr.printf(" label %s", Quote(d.Label))
		}
		pr.printf(";\n")
	}
	if len(p.Shareds) > 0 {
		pr.nl()
	}
	for i, f := range p.Funcs {
		if i > 0 {
			pr.nl()
		}
		pr.printFunc(f)
	}
	return pr.sb.String()
}

type printer struct {
	sb     strings.Builder
	indent int
	edits  map[*Block][]Stmt
}

func (pr *printer) printf(format string, args ...any) {
	fmt.Fprintf(&pr.sb, format, args...)
}

func (pr *printer) nl() { pr.sb.WriteByte('\n') }

func (pr *printer) line(format string, args ...any) {
	pr.sb.WriteString(strings.Repeat("    ", pr.indent))
	pr.printf(format, args...)
	pr.nl()
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
	var params []string
	for _, p := range f.Params {
		params = append(params, fmt.Sprintf("%s %s", p.Name, p.Base))
	}
	sig := fmt.Sprintf("func %s(%s)", f.Name, strings.Join(params, ", "))
	if f.Result != nil {
		sig += " " + f.Result.String()
	}
	pr.line("%s {", sig)
	pr.body(f.Body)
	pr.line("}")
}

func (pr *printer) printStmt(s Stmt) {
	switch n := s.(type) {
	case *Block:
		pr.line("{")
		pr.body(n)
		pr.line("}")
	case *VarDeclStmt:
		dims := ""
		for _, d := range n.Dims {
			dims += fmt.Sprintf("[%s]", ExprString(d))
		}
		if n.Init != nil {
			pr.line("var %s %s%s = %s;", n.Name, n.Base, dims, ExprString(n.Init))
		} else {
			pr.line("var %s %s%s;", n.Name, n.Base, dims)
		}
	case *AssignStmt:
		pr.line("%s %s %s;", lvalueString(n.LHS), n.Op, ExprString(n.RHS))
	case *IfStmt:
		pr.printIf(n, false)
	case *WhileStmt:
		pr.line("while %s {", ExprString(n.Cond))
		pr.body(n.Body)
		pr.line("}")
	case *ForStmt:
		head := fmt.Sprintf("for %s = %s to %s", n.Var, ExprString(n.From), ExprString(n.To))
		if n.Step != nil {
			head += " step " + ExprString(n.Step)
		}
		pr.line("%s {", head)
		pr.body(n.Body)
		pr.line("}")
	case *BarrierStmt:
		pr.line("barrier;")
	case *LockStmt:
		pr.line("lock(%s);", ExprString(n.LockID))
	case *UnlockStmt:
		pr.line("unlock(%s);", ExprString(n.LockID))
	case *ReturnStmt:
		if n.Value != nil {
			pr.line("return %s;", ExprString(n.Value))
		} else {
			pr.line("return;")
		}
	case *ExprStmt:
		pr.line("%s;", ExprString(n.Call))
	case *PrintStmt:
		args := make([]string, 0, len(n.Args)+1)
		args = append(args, Quote(n.Format))
		for _, a := range n.Args {
			args = append(args, ExprString(a))
		}
		pr.line("print(%s);", strings.Join(args, ", "))
	case *CICOStmt:
		pr.line("%s %s;", n.Kind, RangeRefString(n.Target))
	case *CommentStmt:
		pr.line("/*** %s ***/", n.Text)
	default:
		pr.line("/* unprintable statement %T */", s)
	}
}

// printIf prints an if statement; an else-if (chained) continues the
// "} else " line its parent began instead of starting an indented one.
func (pr *printer) printIf(n *IfStmt, chained bool) {
	if !chained {
		pr.sb.WriteString(strings.Repeat("    ", pr.indent))
	}
	pr.printf("if %s {", ExprString(n.Cond))
	pr.nl()
	pr.body(n.Then)
	switch e := n.Else.(type) {
	case nil:
		pr.line("}")
	case *IfStmt:
		pr.sb.WriteString(strings.Repeat("    ", pr.indent))
		pr.printf("} else ")
		pr.printIf(e, true)
	case *Block:
		pr.line("} else {")
		pr.body(e)
		pr.line("}")
	}
}

// Quote renders s as a ParC string literal. It must emit only the escape
// sequences the lexer understands (\n, \t, \\, \") and pass every other byte
// through raw: Go's %q would produce escapes like \r or \x00 that ParC's
// lexer rejects, even though the raw bytes themselves are legal inside a
// ParC string literal. (Found by the conformance round-trip harness.)
func Quote(s string) string {
	var sb strings.Builder
	sb.Grow(len(s) + 2)
	sb.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\n':
			sb.WriteString(`\n`)
		case '\t':
			sb.WriteString(`\t`)
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		default:
			sb.WriteByte(c)
		}
	}
	sb.WriteByte('"')
	return sb.String()
}

func lvalueString(lv *LValue) string {
	s := lv.Name
	for _, ix := range lv.Indices {
		s += fmt.Sprintf("[%s]", ExprString(ix))
	}
	return s
}

// RangeRefString renders an annotation target such as B[k][lo:hi].
func RangeRefString(r *RangeRef) string {
	s := r.Name
	for _, ix := range r.Indices {
		if ix.Hi != nil {
			s += fmt.Sprintf("[%s:%s]", ExprString(ix.Lo), ExprString(ix.Hi))
		} else {
			s += fmt.Sprintf("[%s]", ExprString(ix.Lo))
		}
	}
	return s
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
func ExprString(e Expr) string {
	return exprString(e, 0)
}

func exprString(e Expr, parentPrec int) string {
	switch n := e.(type) {
	case *IntLit:
		return fmt.Sprintf("%d", n.Value)
	case *FloatLit:
		s := fmt.Sprintf("%g", n.Value)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case *VarRef:
		return n.Name
	case *IndexExpr:
		s := n.Name
		for _, ix := range n.Indices {
			s += fmt.Sprintf("[%s]", exprString(ix, 0))
		}
		return s
	case *CallExpr:
		args := make([]string, len(n.Args))
		for i, a := range n.Args {
			args[i] = exprString(a, 0)
		}
		return fmt.Sprintf("%s(%s)", n.Name, strings.Join(args, ", "))
	case *UnaryExpr:
		const unaryPrec = 7
		s := opText[n.Op] + exprString(n.X, unaryPrec)
		if parentPrec > unaryPrec {
			return "(" + s + ")"
		}
		return s
	case *BinaryExpr:
		prec := binPrec[n.Op]
		s := fmt.Sprintf("%s %s %s",
			exprString(n.X, prec), opText[n.Op], exprString(n.Y, prec+1))
		if prec < parentPrec {
			return "(" + s + ")"
		}
		return s
	}
	return fmt.Sprintf("/* %T */", e)
}
