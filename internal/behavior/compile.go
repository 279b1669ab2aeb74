package behavior

import "fmt"

// This file implements a bytecode compiler for behavior programs. The
// simulator evaluates every block at every packet arrival; on large
// networks (the paper's 465-inner-block scaling experiment) the
// tree-walking interpreter (Eval) dominates runtime, so it is kept as
// the reference and the simulator runs bytecode. Compiled programs
// execute the same semantics over a flat instruction array with
// slot-indexed variables instead of map lookups. Equivalence with Eval
// is enforced by property tests.

// Opcode enumerates VM instructions.
type Opcode uint8

const (
	// OpConst pushes Imm.
	OpConst Opcode = iota
	// OpLoadInput pushes the input in slot A.
	OpLoadInput
	// OpLoadPrev pushes the previous-evaluation value of input slot A.
	OpLoadPrev
	// OpLoadState pushes state slot A.
	OpLoadState
	// OpStoreState pops into state slot A.
	OpStoreState
	// OpStoreOutput pops into output slot A.
	OpStoreOutput
	// OpLoadTimer pushes 1 if timer tag A fired.
	OpLoadTimer
	// OpSchedule pops a delay and schedules timer tag A.
	OpSchedule
	// OpNow pushes the current time.
	OpNow
	// OpJump jumps to instruction A.
	OpJump
	// OpJumpIfZero pops; jumps to A when zero.
	OpJumpIfZero
	// OpUnary applies unary operator U to the top of stack.
	OpUnary
	// OpBinary pops y then x and pushes x <B> y.
	OpBinary
	// OpAnd / OpOr are non-short-circuit boolean folds used when both
	// operands are side-effect-free; short-circuit forms compile to
	// jumps.
	OpDrop
)

// Unary operator codes for OpUnary.
const (
	UnNot = iota
	UnNeg
	UnCompl
)

// Binary operator codes for OpBinary.
const (
	BinAdd = iota
	BinSub
	BinMul
	BinDiv
	BinMod
	BinAnd
	BinOr
	BinXor
	BinShl
	BinShr
	BinEq
	BinNe
	BinLt
	BinLe
	BinGt
	BinGe
	BinLAnd
	BinLOr
)

// Instr is one VM instruction.
type Instr struct {
	Op  Opcode
	A   int   // slot index / jump target / timer tag / operator code
	Imm int64 // OpConst immediate
}

// Compiled is an executable behavior program.
type Compiled struct {
	prog *Program
	code []Instr
	// Slot maps, in declaration order.
	inputs  []string
	outputs []string
	states  []string
	// stateInit holds initial values per state slot.
	stateInit []int64
	// paramVal holds the resolved parameter values folded into OpConst
	// at compile time? No — params stay dynamic so one Compiled can
	// serve many instances; they occupy read-only state-like slots.
	params    []string
	paramInit []int64
	maxStack  int
}

// Compile translates a checked program into bytecode. Parameters are
// compiled as read-only slots so the same compiled program serves every
// instance; instances supply their configured values at Reset time.
func Compile(p *Program) (*Compiled, error) {
	if p.Run == nil {
		return nil, fmt.Errorf("behavior: compile: program has no run block")
	}
	c := &Compiled{prog: p}
	c.inputs = append(c.inputs, p.Inputs...)
	c.outputs = append(c.outputs, p.Outputs...)
	for _, d := range p.States {
		c.states = append(c.states, d.Name)
		c.stateInit = append(c.stateInit, d.Init)
	}
	for _, d := range p.Params {
		c.params = append(c.params, d.Name)
		c.paramInit = append(c.paramInit, d.Init)
	}
	g := &codegenState{c: c}
	if err := g.stmt(p.Run); err != nil {
		return nil, err
	}
	c.code = g.code
	c.maxStack = g.maxDepth
	if c.maxStack < 1 {
		c.maxStack = 1
	}
	return c, nil
}

// MustCompile is Compile that panics on error.
func MustCompile(p *Program) *Compiled {
	c, err := Compile(p)
	if err != nil {
		panic(err)
	}
	return c
}

// NumInstr returns the instruction count (for tests and size metrics).
func (c *Compiled) NumInstr() int { return len(c.code) }

type codegenState struct {
	c        *Compiled
	code     []Instr
	depth    int
	maxDepth int
}

func (g *codegenState) emit(i Instr) int {
	g.code = append(g.code, i)
	return len(g.code) - 1
}

func (g *codegenState) push(n int) {
	g.depth += n
	if g.depth > g.maxDepth {
		g.maxDepth = g.depth
	}
}

func (g *codegenState) pop(n int) { g.depth -= n }

func (g *codegenState) stmt(s Stmt) error {
	switch s := s.(type) {
	case *BlockStmt:
		for _, t := range s.Stmts {
			if err := g.stmt(t); err != nil {
				return err
			}
		}
		return nil
	case *AssignStmt:
		if err := g.expr(s.X); err != nil {
			return err
		}
		if slot := indexOf(g.c.outputs, s.Name); slot >= 0 {
			g.emit(Instr{Op: OpStoreOutput, A: slot})
		} else if slot := indexOf(g.c.states, s.Name); slot >= 0 {
			g.emit(Instr{Op: OpStoreState, A: slot})
		} else {
			return errf(s.Pos, "compile: assignment to unknown slot %q", s.Name)
		}
		g.pop(1)
		return nil
	case *IfStmt:
		if err := g.expr(s.Cond); err != nil {
			return err
		}
		jz := g.emit(Instr{Op: OpJumpIfZero})
		g.pop(1)
		if err := g.stmt(s.Then); err != nil {
			return err
		}
		if s.Else == nil {
			g.code[jz].A = len(g.code)
			return nil
		}
		jend := g.emit(Instr{Op: OpJump})
		g.code[jz].A = len(g.code)
		if err := g.stmt(s.Else); err != nil {
			return err
		}
		g.code[jend].A = len(g.code)
		return nil
	case *ExprStmt:
		if err := g.expr(s.X); err != nil {
			return err
		}
		g.emit(Instr{Op: OpDrop})
		g.pop(1)
		return nil
	default:
		return fmt.Errorf("behavior: compile: unknown statement %T", s)
	}
}

func (g *codegenState) expr(e Expr) error {
	switch e := e.(type) {
	case *IntLit:
		g.emit(Instr{Op: OpConst, Imm: e.Val})
		g.push(1)
		return nil
	case *Ident:
		return g.ident(e)
	case *UnaryExpr:
		if err := g.expr(e.X); err != nil {
			return err
		}
		var u int
		switch e.Op {
		case "!":
			u = UnNot
		case "-":
			u = UnNeg
		case "~":
			u = UnCompl
		default:
			return fmt.Errorf("behavior: compile: unary op %q", e.Op)
		}
		g.emit(Instr{Op: OpUnary, A: u})
		return nil
	case *BinaryExpr:
		return g.binary(e)
	case *CallExpr:
		return g.call(e)
	default:
		return fmt.Errorf("behavior: compile: unknown expression %T", e)
	}
}

func (g *codegenState) ident(e *Ident) error {
	if e.Name == TimerIdent {
		g.emit(Instr{Op: OpLoadTimer, A: 0})
		g.push(1)
		return nil
	}
	if slot := indexOf(g.c.inputs, e.Name); slot >= 0 {
		g.emit(Instr{Op: OpLoadInput, A: slot})
		g.push(1)
		return nil
	}
	if slot := indexOf(g.c.states, e.Name); slot >= 0 {
		g.emit(Instr{Op: OpLoadState, A: slot})
		g.push(1)
		return nil
	}
	if slot := indexOf(g.c.params, e.Name); slot >= 0 {
		// Params live after states in the state array (read-only by
		// construction: Check rejects assignments to params).
		g.emit(Instr{Op: OpLoadState, A: len(g.c.states) + slot})
		g.push(1)
		return nil
	}
	return errf(e.Pos, "compile: unresolved identifier %q", e.Name)
}

func (g *codegenState) binary(e *BinaryExpr) error {
	// Short-circuit forms become jumps, preserving Eval's semantics
	// exactly (the right operand may divide by zero).
	if e.Op == "&&" || e.Op == "||" {
		if err := g.expr(e.X); err != nil {
			return err
		}
		// Normalize lhs to 0/1 result lazily: duplicate via jump
		// structure. x && y  =>  if x == 0 -> push 0 else push (y != 0)
		jz := g.emit(Instr{Op: OpJumpIfZero})
		g.pop(1)
		if e.Op == "&&" {
			if err := g.expr(e.Y); err != nil {
				return err
			}
			g.emit(Instr{Op: OpConst, Imm: 0})
			g.push(1)
			g.emit(Instr{Op: OpBinary, A: BinNe})
			g.pop(1)
			jend := g.emit(Instr{Op: OpJump})
			g.code[jz].A = len(g.code)
			g.pop(1) // branch merge: only one path's value remains
			g.emit(Instr{Op: OpConst, Imm: 0})
			g.push(1)
			g.code[jend].A = len(g.code)
			return nil
		}
		// "||": on fallthrough (x != 0) push 1; at the jump target
		// (x == 0) the result is y normalized to 0/1.
		g.emit(Instr{Op: OpConst, Imm: 1})
		g.push(1)
		jend := g.emit(Instr{Op: OpJump})
		g.code[jz].A = len(g.code)
		g.pop(1)
		if err := g.expr(e.Y); err != nil {
			return err
		}
		g.emit(Instr{Op: OpConst, Imm: 0})
		g.push(1)
		g.emit(Instr{Op: OpBinary, A: BinNe})
		g.pop(1)
		g.code[jend].A = len(g.code)
		return nil
	}
	if err := g.expr(e.X); err != nil {
		return err
	}
	if err := g.expr(e.Y); err != nil {
		return err
	}
	var b int
	switch e.Op {
	case "+":
		b = BinAdd
	case "-":
		b = BinSub
	case "*":
		b = BinMul
	case "/":
		b = BinDiv
	case "%":
		b = BinMod
	case "&":
		b = BinAnd
	case "|":
		b = BinOr
	case "^":
		b = BinXor
	case "<<":
		b = BinShl
	case ">>":
		b = BinShr
	case "==":
		b = BinEq
	case "!=":
		b = BinNe
	case "<":
		b = BinLt
	case "<=":
		b = BinLe
	case ">":
		b = BinGt
	case ">=":
		b = BinGe
	default:
		return fmt.Errorf("behavior: compile: binary op %q", e.Op)
	}
	g.emit(Instr{Op: OpBinary, A: b})
	g.pop(1)
	return nil
}

func (g *codegenState) call(e *CallExpr) error {
	switch e.Fun {
	case "rising": // cur != 0 && prev == 0
		in := e.Args[0].(*Ident).Name
		slot := indexOf(g.c.inputs, in)
		g.emit(Instr{Op: OpLoadInput, A: slot})
		g.push(1)
		g.emit(Instr{Op: OpConst, Imm: 0})
		g.push(1)
		g.emit(Instr{Op: OpBinary, A: BinNe})
		g.pop(1)
		g.emit(Instr{Op: OpLoadPrev, A: slot})
		g.push(1)
		g.emit(Instr{Op: OpConst, Imm: 0})
		g.push(1)
		g.emit(Instr{Op: OpBinary, A: BinEq})
		g.pop(1)
		g.emit(Instr{Op: OpBinary, A: BinAnd})
		g.pop(1)
		return nil
	case "falling": // cur == 0 && prev != 0
		in := e.Args[0].(*Ident).Name
		slot := indexOf(g.c.inputs, in)
		g.emit(Instr{Op: OpLoadInput, A: slot})
		g.push(1)
		g.emit(Instr{Op: OpConst, Imm: 0})
		g.push(1)
		g.emit(Instr{Op: OpBinary, A: BinEq})
		g.pop(1)
		g.emit(Instr{Op: OpLoadPrev, A: slot})
		g.push(1)
		g.emit(Instr{Op: OpConst, Imm: 0})
		g.push(1)
		g.emit(Instr{Op: OpBinary, A: BinNe})
		g.pop(1)
		g.emit(Instr{Op: OpBinary, A: BinAnd})
		g.pop(1)
		return nil
	case "changed":
		in := e.Args[0].(*Ident).Name
		slot := indexOf(g.c.inputs, in)
		g.emit(Instr{Op: OpLoadInput, A: slot})
		g.push(1)
		g.emit(Instr{Op: OpLoadPrev, A: slot})
		g.push(1)
		g.emit(Instr{Op: OpBinary, A: BinNe})
		g.pop(1)
		return nil
	case "prev":
		in := e.Args[0].(*Ident).Name
		g.emit(Instr{Op: OpLoadPrev, A: indexOf(g.c.inputs, in)})
		g.push(1)
		return nil
	case "schedule":
		if err := g.expr(e.Args[0]); err != nil {
			return err
		}
		g.emit(Instr{Op: OpSchedule, A: 0})
		g.pop(1)
		// Calls are expressions; push the 0 result like Eval does.
		g.emit(Instr{Op: OpConst, Imm: 0})
		g.push(1)
		return nil
	case "scheduletag":
		tag := int(e.Args[0].(*IntLit).Val)
		if err := g.expr(e.Args[1]); err != nil {
			return err
		}
		g.emit(Instr{Op: OpSchedule, A: tag})
		g.pop(1)
		g.emit(Instr{Op: OpConst, Imm: 0})
		g.push(1)
		return nil
	case "timertag":
		g.emit(Instr{Op: OpLoadTimer, A: int(e.Args[0].(*IntLit).Val)})
		g.push(1)
		return nil
	case "now":
		g.emit(Instr{Op: OpNow})
		g.push(1)
		return nil
	default:
		return errf(e.Pos, "compile: unknown function %q", e.Fun)
	}
}
