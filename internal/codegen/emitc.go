package codegen

import (
	"fmt"
	"strings"

	"repro/internal/behavior"
)

// EmitC translates a behavior program into portable C for a
// PIC16F628-class microcontroller firmware (paper Section 3.3: "a user
// can ... instruct the simulator to translate the syntax tree into C
// code for downloading and use in a physical block").
//
// The generated module exposes:
//
//	void <name>_init(void);
//	void <name>_step(const int32_t *inputs, int32_t *outputs,
//	                 uint8_t timer_fired_mask, uint32_t now_ms);
//
// plus a weak hook `<name>_schedule(uint8_t tag, uint32_t delay_ms)`
// that the device runtime implements to arm hardware timers. Previous
// input values for edge detection are kept inside the module.
func EmitC(p *behavior.Program, name string) string {
	e := &cEmitter{prog: p, name: name}
	return e.emit()
}

type cEmitter struct {
	prog *behavior.Program
	name string
	b    strings.Builder
	ind  int
}

func (e *cEmitter) emit() string {
	p := e.prog
	fmt.Fprintf(&e.b, "/* Generated by the eBlocks synthesis tool chain. Do not edit. */\n")
	fmt.Fprintf(&e.b, "#include <stdint.h>\n\n")
	fmt.Fprintf(&e.b, "/* Block: %s — %d input(s), %d output(s). */\n\n", e.name, len(p.Inputs), len(p.Outputs))

	fmt.Fprintf(&e.b, "void %s_schedule(uint8_t tag, uint32_t delay_ms); /* provided by the device runtime */\n\n", e.name)

	// State: declared state variables plus previous-input shadows.
	for _, d := range p.States {
		fmt.Fprintf(&e.b, "static int32_t %s = %d;\n", e.v(d.Name), d.Init)
	}
	for i, in := range p.Inputs {
		fmt.Fprintf(&e.b, "static int32_t %s_prev; /* previous value of input %d */\n", e.v(in), i)
	}
	e.b.WriteString("\n")

	// Params as #defines (their configured values are already inlined
	// by the merge step for programmable blocks; standalone blocks keep
	// defaults).
	for _, d := range p.Params {
		fmt.Fprintf(&e.b, "#define %s (%d)\n", e.v(d.Name), d.Init)
	}
	if len(p.Params) > 0 {
		e.b.WriteString("\n")
	}

	fmt.Fprintf(&e.b, "void %s_init(void) {\n", e.name)
	for _, d := range p.States {
		fmt.Fprintf(&e.b, "    %s = %d;\n", e.v(d.Name), d.Init)
	}
	for _, in := range p.Inputs {
		fmt.Fprintf(&e.b, "    %s_prev = 0;\n", e.v(in))
	}
	fmt.Fprintf(&e.b, "}\n\n")

	fmt.Fprintf(&e.b, "void %s_step(const int32_t *inputs, int32_t *outputs, uint8_t timer_fired_mask, uint32_t now_ms) {\n", e.name)
	e.ind = 1
	e.stmt(p.Run, false)
	// Update previous-input shadows.
	for i, in := range p.Inputs {
		e.line(fmt.Sprintf("%s_prev = inputs[%d];", e.v(in), i))
	}
	e.line("(void)timer_fired_mask; (void)now_ms; (void)inputs; (void)outputs;")
	fmt.Fprintf(&e.b, "}\n")
	return e.b.String()
}

// v mangles an identifier into the module's C namespace.
func (e *cEmitter) v(name string) string { return e.name + "_" + name }

func (e *cEmitter) line(s string) {
	for i := 0; i < e.ind; i++ {
		e.b.WriteString("    ")
	}
	e.b.WriteString(s)
	e.b.WriteString("\n")
}

// stmt emits a statement. When brace is true the caller already opened
// a block; BlockStmt bodies are emitted inline.
func (e *cEmitter) stmt(s behavior.Stmt, brace bool) {
	switch s := s.(type) {
	case *behavior.BlockStmt:
		for _, t := range s.Stmts {
			e.stmt(t, false)
		}
	case *behavior.AssignStmt:
		e.line(fmt.Sprintf("%s = %s;", e.lvalue(s.Name), e.expr(s.X)))
	case *behavior.IfStmt:
		e.line(fmt.Sprintf("if (%s) {", e.expr(s.Cond)))
		e.ind++
		e.stmt(s.Then, true)
		e.ind--
		if s.Else != nil {
			e.line("} else {")
			e.ind++
			e.stmt(s.Else, true)
			e.ind--
		}
		e.line("}")
	case *behavior.ExprStmt:
		e.line(fmt.Sprintf("%s;", e.expr(s.X)))
	default:
		e.line(fmt.Sprintf("/* unknown stmt %T */", s))
	}
}

// lvalue resolves an assignment target: outputs write to the outputs
// array; states write to module statics.
func (e *cEmitter) lvalue(name string) string {
	for i, out := range e.prog.Outputs {
		if out == name {
			return fmt.Sprintf("outputs[%d]", i)
		}
	}
	return e.v(name)
}

func (e *cEmitter) expr(x behavior.Expr) string {
	switch x := x.(type) {
	case *behavior.IntLit:
		if x.Val < 0 {
			return fmt.Sprintf("(%d)", x.Val)
		}
		return fmt.Sprintf("%d", x.Val)
	case *behavior.Ident:
		return e.ident(x.Name)
	case *behavior.UnaryExpr:
		return fmt.Sprintf("%s(%s)", x.Op, e.expr(x.X))
	case *behavior.BinaryExpr:
		// Normalize boolean results to 0/1 like the interpreter.
		if x.Op == "&&" || x.Op == "||" {
			return fmt.Sprintf("((%s %s %s) ? 1 : 0)", e.expr(x.X), x.Op, e.expr(x.Y))
		}
		return fmt.Sprintf("(%s %s %s)", e.expr(x.X), x.Op, e.expr(x.Y))
	case *behavior.CallExpr:
		return e.call(x)
	default:
		return fmt.Sprintf("/* unknown expr %T */0", x)
	}
}

func (e *cEmitter) ident(name string) string {
	if name == behavior.TimerIdent {
		return "((timer_fired_mask >> 0) & 1)"
	}
	for i, in := range e.prog.Inputs {
		if in == name {
			return fmt.Sprintf("inputs[%d]", i)
		}
	}
	// States and params resolve to module-level names.
	return e.v(name)
}

func (e *cEmitter) call(c *behavior.CallExpr) string {
	switch c.Fun {
	case "rising":
		in := c.Args[0].(*behavior.Ident).Name
		return fmt.Sprintf("((%s != 0) && (%s_prev == 0))", e.ident(in), e.v(in))
	case "falling":
		in := c.Args[0].(*behavior.Ident).Name
		return fmt.Sprintf("((%s == 0) && (%s_prev != 0))", e.ident(in), e.v(in))
	case "changed":
		in := c.Args[0].(*behavior.Ident).Name
		return fmt.Sprintf("(%s != %s_prev)", e.ident(in), e.v(in))
	case "prev":
		in := c.Args[0].(*behavior.Ident).Name
		return fmt.Sprintf("%s_prev", e.v(in))
	case "schedule":
		return fmt.Sprintf("%s_schedule(0, (uint32_t)(%s))", e.name, e.expr(c.Args[0]))
	case "scheduletag":
		tag := c.Args[0].(*behavior.IntLit).Val
		return fmt.Sprintf("%s_schedule(%d, (uint32_t)(%s))", e.name, tag, e.expr(c.Args[1]))
	case "timertag":
		tag := c.Args[0].(*behavior.IntLit).Val
		return fmt.Sprintf("((timer_fired_mask >> %d) & 1)", tag)
	case "now":
		return "((int32_t)now_ms)"
	default:
		return fmt.Sprintf("/* unknown builtin %s */0", c.Fun)
	}
}
