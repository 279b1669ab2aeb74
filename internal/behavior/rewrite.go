package behavior

import "fmt"

// Subst describes an identifier-level rewrite of a statement tree, used
// by the code generator when it merges the syntax trees of the blocks of
// a partition into one programmable-block program (paper Section 3.3):
//
//   - Reads maps an identifier to a replacement expression (e.g. an
//     internal input port becomes a wire variable, a parameter becomes
//     its literal value).
//   - Writes maps an assignment target to its new name (e.g. an internal
//     output port becomes a wire variable; conflicting state names get
//     per-block prefixes).
//   - EdgeFns maps an input identifier appearing as the argument of
//     rising/falling/changed/prev to a pair of expressions (current,
//     previous); the call is rewritten into explicit comparisons so that
//     edge detection keeps its meaning after the port has been replaced
//     by a wire variable.
//   - TimerTag, when >= 0, re-tags schedule/timer builtins: schedule(d)
//     becomes scheduletag(TimerTag, d) and the `timer` identifier (and
//     timertag(0)) becomes timertag(TimerTag), so several timer-using
//     blocks can coexist in one merged program.
type Subst struct {
	Reads    map[string]Expr
	Writes   map[string]string
	EdgeFns  map[string]EdgePair
	TimerTag int // -1 means leave timers untouched
}

// EdgePair supplies the (current, previous) expressions that replace an
// edge-detection builtin's input argument.
type EdgePair struct {
	Cur, Prev Expr
}

// NewSubst returns an empty substitution that leaves timers untouched.
func NewSubst() *Subst {
	return &Subst{
		Reads:    map[string]Expr{},
		Writes:   map[string]string{},
		EdgeFns:  map[string]EdgePair{},
		TimerTag: -1,
	}
}

// RewriteStmt applies the substitution to a deep copy of s; the input is
// not modified.
func RewriteStmt(s Stmt, sub *Subst) (Stmt, error) {
	switch s := s.(type) {
	case *BlockStmt:
		out := &BlockStmt{Stmts: make([]Stmt, len(s.Stmts))}
		for i, t := range s.Stmts {
			r, err := RewriteStmt(t, sub)
			if err != nil {
				return nil, err
			}
			out.Stmts[i] = r
		}
		return out, nil
	case *AssignStmt:
		name := s.Name
		if to, ok := sub.Writes[name]; ok {
			name = to
		}
		x, err := RewriteExpr(s.X, sub)
		if err != nil {
			return nil, err
		}
		return &AssignStmt{Name: name, Pos: s.Pos, X: x}, nil
	case *IfStmt:
		cond, err := RewriteExpr(s.Cond, sub)
		if err != nil {
			return nil, err
		}
		thenR, err := RewriteStmt(s.Then, sub)
		if err != nil {
			return nil, err
		}
		out := &IfStmt{Cond: cond, Then: thenR.(*BlockStmt)}
		if s.Else != nil {
			elseR, err := RewriteStmt(s.Else, sub)
			if err != nil {
				return nil, err
			}
			out.Else = elseR
		}
		return out, nil
	case *ExprStmt:
		x, err := RewriteExpr(s.X, sub)
		if err != nil {
			return nil, err
		}
		return &ExprStmt{X: x}, nil
	default:
		return nil, fmt.Errorf("behavior: rewrite: unknown statement %T", s)
	}
}

// RewriteExpr applies the substitution to a deep copy of e.
func RewriteExpr(e Expr, sub *Subst) (Expr, error) {
	switch e := e.(type) {
	case *IntLit:
		return &IntLit{Val: e.Val}, nil
	case *Ident:
		if e.Name == TimerIdent && sub.TimerTag >= 0 {
			return &CallExpr{
				Fun:  "timertag",
				Pos:  e.Pos,
				Args: []Expr{&IntLit{Val: int64(sub.TimerTag)}},
			}, nil
		}
		if r, ok := sub.Reads[e.Name]; ok {
			return CloneExpr(r), nil
		}
		return &Ident{Name: e.Name, Pos: e.Pos}, nil
	case *UnaryExpr:
		x, err := RewriteExpr(e.X, sub)
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: e.Op, X: x}, nil
	case *BinaryExpr:
		x, err := RewriteExpr(e.X, sub)
		if err != nil {
			return nil, err
		}
		y, err := RewriteExpr(e.Y, sub)
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: e.Op, X: x, Y: y}, nil
	case *CallExpr:
		return rewriteCall(e, sub)
	default:
		return nil, fmt.Errorf("behavior: rewrite: unknown expression %T", e)
	}
}

func rewriteCall(e *CallExpr, sub *Subst) (Expr, error) {
	switch e.Fun {
	case "rising", "falling", "changed", "prev":
		id := e.Args[0].(*Ident)
		pair, ok := sub.EdgeFns[id.Name]
		if !ok {
			// The argument may still need a plain read substitution if
			// the input was renamed to another input identifier.
			if r, okr := sub.Reads[id.Name]; okr {
				if rid, isIdent := r.(*Ident); isIdent {
					c := &CallExpr{Fun: e.Fun, Pos: e.Pos, Args: []Expr{&Ident{Name: rid.Name, Pos: id.Pos}}}
					return c, nil
				}
				return nil, errf(e.Pos, "rewrite: %s argument %q replaced by a non-identifier without an EdgeFns entry", e.Fun, id.Name)
			}
			return CloneExpr(e), nil
		}
		cur, prev := CloneExpr(pair.Cur), CloneExpr(pair.Prev)
		switch e.Fun {
		case "rising": // cur && !prev
			return &BinaryExpr{Op: "&&", X: cur, Y: &UnaryExpr{Op: "!", X: prev}}, nil
		case "falling": // !cur && prev
			return &BinaryExpr{Op: "&&", X: &UnaryExpr{Op: "!", X: cur}, Y: prev}, nil
		case "changed": // cur != prev
			return &BinaryExpr{Op: "!=", X: cur, Y: prev}, nil
		default: // prev
			return prev, nil
		}
	case "schedule":
		arg, err := RewriteExpr(e.Args[0], sub)
		if err != nil {
			return nil, err
		}
		if sub.TimerTag >= 0 {
			return &CallExpr{
				Fun:  "scheduletag",
				Pos:  e.Pos,
				Args: []Expr{&IntLit{Val: int64(sub.TimerTag)}, arg},
			}, nil
		}
		return &CallExpr{Fun: "schedule", Pos: e.Pos, Args: []Expr{arg}}, nil
	case "scheduletag":
		arg, err := RewriteExpr(e.Args[1], sub)
		if err != nil {
			return nil, err
		}
		tag := e.Args[0].(*IntLit).Val
		if sub.TimerTag >= 0 {
			tag = int64(sub.TimerTag)
		}
		return &CallExpr{Fun: "scheduletag", Pos: e.Pos, Args: []Expr{&IntLit{Val: tag}, arg}}, nil
	case "timertag":
		tag := e.Args[0].(*IntLit).Val
		if sub.TimerTag >= 0 {
			tag = int64(sub.TimerTag)
		}
		return &CallExpr{Fun: "timertag", Pos: e.Pos, Args: []Expr{&IntLit{Val: tag}}}, nil
	default:
		out := &CallExpr{Fun: e.Fun, Pos: e.Pos, Args: make([]Expr, len(e.Args))}
		for i, a := range e.Args {
			r, err := RewriteExpr(a, sub)
			if err != nil {
				return nil, err
			}
			out.Args[i] = r
		}
		return out, nil
	}
}

// EdgeArgs returns the input names that appear as arguments of the
// edge-detection builtins (rising, falling, changed, prev) anywhere in
// the statement tree, without duplicates, in first-seen order. The code
// generator uses this to know which internal wires need previous-value
// shadows and power-up suppression.
func EdgeArgs(s Stmt) []string {
	seen := map[string]bool{}
	var order []string
	var walkStmt func(Stmt)
	var walkExpr func(Expr)
	walkExpr = func(e Expr) {
		switch e := e.(type) {
		case *UnaryExpr:
			walkExpr(e.X)
		case *BinaryExpr:
			walkExpr(e.X)
			walkExpr(e.Y)
		case *CallExpr:
			switch e.Fun {
			case "rising", "falling", "changed", "prev":
				if id, ok := e.Args[0].(*Ident); ok && !seen[id.Name] {
					seen[id.Name] = true
					order = append(order, id.Name)
				}
			}
			for _, a := range e.Args {
				walkExpr(a)
			}
		}
	}
	walkStmt = func(s Stmt) {
		switch s := s.(type) {
		case *BlockStmt:
			for _, t := range s.Stmts {
				walkStmt(t)
			}
		case *AssignStmt:
			walkExpr(s.X)
		case *IfStmt:
			walkExpr(s.Cond)
			walkStmt(s.Then)
			if s.Else != nil {
				walkStmt(s.Else)
			}
		case *ExprStmt:
			walkExpr(s.X)
		}
	}
	walkStmt(s)
	return order
}
