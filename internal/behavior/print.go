package behavior

import (
	"fmt"
	"strings"
)

// Format renders the program back to parsable source. The output is
// deterministic and round-trips through Parse (modulo whitespace), which
// the tests verify.
func Format(p *Program) string {
	var b strings.Builder
	if len(p.Inputs) > 0 {
		fmt.Fprintf(&b, "input %s;\n", strings.Join(p.Inputs, ", "))
	}
	if len(p.Outputs) > 0 {
		fmt.Fprintf(&b, "output %s;\n", strings.Join(p.Outputs, ", "))
	}
	for _, d := range p.States {
		fmt.Fprintf(&b, "state %s = %d;\n", d.Name, d.Init)
	}
	for _, d := range p.Params {
		fmt.Fprintf(&b, "param %s = %d;\n", d.Name, d.Init)
	}
	b.WriteString("run ")
	writeStmt(&b, p.Run, 0)
	b.WriteString("\n")
	return b.String()
}

// FormatStmt renders a single statement tree with the given starting
// indent level; useful for debugging merged trees.
func FormatStmt(s Stmt) string {
	var b strings.Builder
	writeStmt(&b, s, 0)
	return b.String()
}

// FormatExpr renders an expression with minimal but safe parenthesizing
// (every nested binary/unary operand is parenthesized).
func FormatExpr(e Expr) string {
	var b strings.Builder
	writeExpr(&b, e, false)
	return b.String()
}

func indent(b *strings.Builder, level int) {
	for i := 0; i < level; i++ {
		b.WriteString("    ")
	}
}

func writeStmt(b *strings.Builder, s Stmt, level int) {
	switch s := s.(type) {
	case *BlockStmt:
		b.WriteString("{\n")
		for _, t := range s.Stmts {
			indent(b, level+1)
			writeStmt(b, t, level+1)
			b.WriteString("\n")
		}
		indent(b, level)
		b.WriteString("}")
	case *AssignStmt:
		fmt.Fprintf(b, "%s = ", s.Name)
		writeExpr(b, s.X, false)
		b.WriteString(";")
	case *IfStmt:
		b.WriteString("if (")
		writeExpr(b, s.Cond, false)
		b.WriteString(") ")
		writeStmt(b, s.Then, level)
		if s.Else != nil {
			b.WriteString(" else ")
			writeStmt(b, s.Else, level)
		}
	case *ExprStmt:
		writeExpr(b, s.X, false)
		b.WriteString(";")
	default:
		fmt.Fprintf(b, "/* unknown stmt %T */", s)
	}
}

func writeExpr(b *strings.Builder, e Expr, nested bool) {
	switch e := e.(type) {
	case *IntLit:
		if e.Val < 0 {
			fmt.Fprintf(b, "(%d)", e.Val)
		} else {
			fmt.Fprintf(b, "%d", e.Val)
		}
	case *Ident:
		b.WriteString(e.Name)
	case *UnaryExpr:
		b.WriteString(e.Op)
		writeExpr(b, e.X, true)
	case *BinaryExpr:
		if nested {
			b.WriteString("(")
		}
		writeExpr(b, e.X, true)
		fmt.Fprintf(b, " %s ", e.Op)
		writeExpr(b, e.Y, true)
		if nested {
			b.WriteString(")")
		}
	case *CallExpr:
		b.WriteString(e.Fun)
		b.WriteString("(")
		for i, a := range e.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			writeExpr(b, a, false)
		}
		b.WriteString(")")
	default:
		fmt.Fprintf(b, "/* unknown expr %T */", e)
	}
}

// Equal reports structural equality of two statement trees, ignoring
// source positions. Used by tests (e.g. clone independence, rewrite
// idempotence on identity substitutions).
func Equal(a, b Stmt) bool { return FormatStmt(a) == FormatStmt(b) }
