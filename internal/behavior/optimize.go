package behavior

// Optimize performs semantics-preserving simplification of a statement
// tree: constant folding, boolean/arithmetic identities, and
// dead-branch elimination. The code generator runs it on merged
// programs after parameter inlining, so a TruthTable2 configured as an
// AND gate compiles to `w = a && b`-class code instead of a shift of a
// constant, shrinking both the interpreted tree and the emitted C.
//
// Folding follows Eval's semantics exactly, including over-shift
// yielding 0. Expressions that would fault at runtime (division by
// zero) are left unfolded so the error still occurs at the same place.
// Short-circuit operands are only folded where evaluation order cannot
// be observed (the language has no side effects in pure expressions;
// schedule() calls appear only in statement position by convention, but
// guard anyway by never deleting subexpressions containing calls with
// effects).

// OptimizeStmt simplifies a statement tree (operating on, and
// returning, fresh nodes).
func OptimizeStmt(s Stmt) Stmt {
	switch s := s.(type) {
	case *BlockStmt:
		out := &BlockStmt{}
		for _, t := range s.Stmts {
			o := OptimizeStmt(t)
			switch o := o.(type) {
			case *BlockStmt:
				// Flatten nested blocks produced by if-elimination.
				out.Stmts = append(out.Stmts, o.Stmts...)
			default:
				out.Stmts = append(out.Stmts, o)
			}
		}
		return out
	case *AssignStmt:
		return &AssignStmt{Name: s.Name, Pos: s.Pos, X: OptimizeExpr(s.X)}
	case *IfStmt:
		cond := OptimizeExpr(s.Cond)
		if lit, ok := cond.(*IntLit); ok {
			if lit.Val != 0 {
				return OptimizeStmt(s.Then)
			}
			if s.Else != nil {
				return OptimizeStmt(s.Else)
			}
			return &BlockStmt{}
		}
		out := &IfStmt{Cond: cond, Then: asBlock(OptimizeStmt(s.Then))}
		if s.Else != nil {
			el := OptimizeStmt(s.Else)
			// An empty else clause disappears.
			if blk, ok := el.(*BlockStmt); !ok || len(blk.Stmts) > 0 {
				out.Else = el
			}
		}
		return out
	case *ExprStmt:
		x := OptimizeExpr(s.X)
		if _, isLit := x.(*IntLit); isLit {
			return &BlockStmt{} // pure constant statement: dead
		}
		return &ExprStmt{X: x}
	default:
		return s
	}
}

func asBlock(s Stmt) *BlockStmt {
	if b, ok := s.(*BlockStmt); ok {
		return b
	}
	return &BlockStmt{Stmts: []Stmt{s}}
}

// hasEffects reports whether evaluating e can schedule a timer (the
// only expression-level side effect in the language).
func hasEffects(e Expr) bool {
	switch e := e.(type) {
	case *UnaryExpr:
		return hasEffects(e.X)
	case *BinaryExpr:
		return hasEffects(e.X) || hasEffects(e.Y)
	case *CallExpr:
		if e.Fun == "schedule" || e.Fun == "scheduletag" {
			return true
		}
		for _, a := range e.Args {
			if hasEffects(a) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// OptimizeExpr simplifies an expression.
func OptimizeExpr(e Expr) Expr {
	switch e := e.(type) {
	case *IntLit, *Ident:
		return CloneExpr(e)
	case *UnaryExpr:
		x := OptimizeExpr(e.X)
		if lit, ok := x.(*IntLit); ok {
			switch e.Op {
			case "!":
				return &IntLit{Val: b2i(lit.Val == 0)}
			case "-":
				return &IntLit{Val: -lit.Val}
			case "~":
				return &IntLit{Val: ^lit.Val}
			}
		}
		// Double negation of a boolean context: !!x is not generally x
		// (values beyond 0/1), but !!(!x) == !x; keep it simple and
		// only fold triple-!: !!!x == !x.
		if inner, ok := x.(*UnaryExpr); ok && e.Op == "!" && inner.Op == "!" {
			if inner2, ok2 := inner.X.(*UnaryExpr); ok2 && inner2.Op == "!" {
				return &UnaryExpr{Op: "!", X: inner2.X}
			}
		}
		return &UnaryExpr{Op: e.Op, X: x}
	case *BinaryExpr:
		return optimizeBinary(e)
	case *CallExpr:
		out := &CallExpr{Fun: e.Fun, Pos: e.Pos, Args: make([]Expr, len(e.Args))}
		for i, a := range e.Args {
			out.Args[i] = OptimizeExpr(a)
		}
		return out
	default:
		return e
	}
}

func optimizeBinary(e *BinaryExpr) Expr {
	x := OptimizeExpr(e.X)
	y := OptimizeExpr(e.Y)
	lx, xIsLit := x.(*IntLit)
	ly, yIsLit := y.(*IntLit)

	// Full constant folding (except faulting division).
	if xIsLit && yIsLit {
		if v, ok := foldConst(e.Op, lx.Val, ly.Val); ok {
			return &IntLit{Val: v}
		}
	}

	switch e.Op {
	case "&&":
		if xIsLit {
			if lx.Val == 0 {
				return &IntLit{Val: 0}
			}
			// true && y == (y != 0)
			return normalizeBool(y)
		}
		if yIsLit && !hasEffects(x) {
			if ly.Val == 0 {
				// x && false: x must still be evaluated for... the
				// language's pure expressions have no effects beyond
				// schedule (checked), so this is safe.
				return &IntLit{Val: 0}
			}
			return normalizeBool(x)
		}
	case "||":
		if xIsLit {
			if lx.Val != 0 {
				return &IntLit{Val: 1}
			}
			return normalizeBool(y)
		}
		if yIsLit && !hasEffects(x) {
			if ly.Val != 0 {
				return &IntLit{Val: 1}
			}
			return normalizeBool(x)
		}
	case "+":
		if xIsLit && lx.Val == 0 {
			return y
		}
		if yIsLit && ly.Val == 0 {
			return x
		}
	case "-":
		if yIsLit && ly.Val == 0 {
			return x
		}
	case "*":
		if xIsLit && lx.Val == 1 {
			return y
		}
		if yIsLit && ly.Val == 1 {
			return x
		}
		if (xIsLit && lx.Val == 0 && !hasEffects(y)) || (yIsLit && ly.Val == 0 && !hasEffects(x)) {
			return &IntLit{Val: 0}
		}
	case "&":
		if (xIsLit && lx.Val == 0 && !hasEffects(y)) || (yIsLit && ly.Val == 0 && !hasEffects(x)) {
			return &IntLit{Val: 0}
		}
	case "|", "^":
		if xIsLit && lx.Val == 0 {
			return y
		}
		if yIsLit && ly.Val == 0 {
			return x
		}
	case "<<", ">>":
		if yIsLit && ly.Val == 0 {
			return x
		}
	}
	return &BinaryExpr{Op: e.Op, X: x, Y: y}
}

// normalizeBool wraps e so the result is 0/1, preserving &&/|| result
// conventions. If e is already boolean-valued (comparison, logical op,
// or !), it is returned as is.
func normalizeBool(e Expr) Expr {
	switch e := e.(type) {
	case *IntLit:
		return &IntLit{Val: b2i(e.Val != 0)}
	case *UnaryExpr:
		if e.Op == "!" {
			return e
		}
	case *BinaryExpr:
		switch e.Op {
		case "&&", "||", "==", "!=", "<", "<=", ">", ">=":
			return e
		}
	case *CallExpr:
		switch e.Fun {
		case "rising", "falling", "changed", "timertag":
			return e
		}
	}
	return &BinaryExpr{Op: "!=", X: e, Y: &IntLit{Val: 0}}
}

// foldConst evaluates op on two constants; ok is false for faulting
// operations (so the runtime error location is preserved).
func foldConst(op string, x, y int64) (int64, bool) {
	switch op {
	case "+":
		return x + y, true
	case "-":
		return x - y, true
	case "*":
		return x * y, true
	case "/":
		if y == 0 {
			return 0, false
		}
		return x / y, true
	case "%":
		if y == 0 {
			return 0, false
		}
		return x % y, true
	case "&":
		return x & y, true
	case "|":
		return x | y, true
	case "^":
		return x ^ y, true
	case "<<":
		if y < 0 || y > 63 {
			return 0, true
		}
		return x << uint(y), true
	case ">>":
		if y < 0 || y > 63 {
			return 0, true
		}
		return x >> uint(y), true
	case "==":
		return b2i(x == y), true
	case "!=":
		return b2i(x != y), true
	case "<":
		return b2i(x < y), true
	case "<=":
		return b2i(x <= y), true
	case ">":
		return b2i(x > y), true
	case ">=":
		return b2i(x >= y), true
	case "&&":
		return b2i(x != 0 && y != 0), true
	case "||":
		return b2i(x != 0 || y != 0), true
	default:
		return 0, false
	}
}
