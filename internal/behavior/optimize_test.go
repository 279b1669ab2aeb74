package behavior

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func optimizeSrc(t *testing.T, src string) string {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return FormatStmt(OptimizeStmt(p.Run))
}

func TestOptimizeConstantFolding(t *testing.T) {
	cases := map[string]string{
		"y = 1 + 2 * 3;":    "y = 7;",
		"y = (4 >> 1) & 1;": "y = 0;",
		"y = (6 >> 1) & 1;": "y = 1;",
		"y = !0;":           "y = 1;",
		"y = 1 && 1;":       "y = 1;",
		"y = 0 || 0;":       "y = 0;",
		"y = 5 == 5;":       "y = 1;",
		"y = -(-3);":        "y = 3;",
		"y = 1 << 99;":      "y = 0;", // over-shift semantics preserved
	}
	for body, want := range cases {
		got := optimizeSrc(t, "input a; output y; run { "+body+" }")
		if got != "{\n    "+want+"\n}" {
			t.Errorf("optimize(%q) = %q, want %q", body, got, want)
		}
	}
}

func TestOptimizeIdentities(t *testing.T) {
	cases := map[string]string{
		"y = a + 0;":          "y = a;",
		"y = 0 + a;":          "y = a;",
		"y = a - 0;":          "y = a;",
		"y = a * 1;":          "y = a;",
		"y = a * 0;":          "y = 0;",
		"y = a | 0;":          "y = a;",
		"y = a ^ 0;":          "y = a;",
		"y = a & 0;":          "y = 0;",
		"y = a << 0;":         "y = a;",
		"y = 1 && a;":         "y = a != 0;",
		"y = 0 && a;":         "y = 0;",
		"y = 0 || a;":         "y = a != 0;",
		"y = 1 || a;":         "y = 1;",
		"y = a && 1;":         "y = a != 0;",
		"y = a || 0;":         "y = a != 0;",
		"y = 1 && rising(a);": "y = rising(a);",
	}
	for body, want := range cases {
		got := optimizeSrc(t, "input a; output y; run { "+body+" }")
		if got != "{\n    "+want+"\n}" {
			t.Errorf("optimize(%q) = %q, want %q", body, got, want)
		}
	}
}

func TestOptimizeDeadBranches(t *testing.T) {
	got := optimizeSrc(t, `input a; output y; run {
        if (1) { y = a; } else { y = 0; }
        if (0) { y = 99; }
        if (0) { y = 98; } else { y = a; }
        if (a) { y = 1; } else { }
    }`)
	want := "{\n    y = a;\n    y = a;\n    if (a) {\n        y = 1;\n    }\n}"
	if got != want {
		t.Fatalf("optimize = %q, want %q", got, want)
	}
}

func TestOptimizeKeepsFaultingDivision(t *testing.T) {
	// 1/0 must not be folded away or into a value; it still faults.
	p := MustParse("output y; run { y = 1 / 0; }")
	o := OptimizeStmt(p.Run)
	env := newFakeEnv()
	prog := &Program{Outputs: []string{"y"}, Run: o.(*BlockStmt)}
	if err := Eval(prog, env); err == nil {
		t.Fatal("folded division by zero away")
	}
}

func TestOptimizeKeepsScheduleEffects(t *testing.T) {
	// `0 && schedule-bearing` must not delete the schedule call when it
	// would have executed. schedule appears on the left here, so the
	// fold of `x && 0` must check for effects.
	got := optimizeSrc(t, "input a; output y; run { if (a) { schedule(5); } y = timer && 0; }")
	if got == "{\n    if (a) {\n        schedule(5);\n    }\n    y = 0;\n}" {
		// timer has no effects, so this fold is legal; the assertion
		// is that schedule survives inside the if.
		return
	}
	if !containsStr(got, "schedule(5)") {
		t.Fatalf("schedule call eliminated:\n%s", got)
	}
}

func TestOptimizeTruthTableAfterInlining(t *testing.T) {
	// The codegen use case: TruthTable2 with TT inlined as a constant
	// folds the shift machinery into a residual expression without the
	// parameter.
	p := MustParse("input a, b; output y; run { y = (8 >> ((a != 0) * 2 + (b != 0))) & 1; }")
	o := FormatStmt(OptimizeStmt(p.Run))
	if containsStr(o, "TT") {
		t.Fatalf("parameter survived: %s", o)
	}
	// Semantics preserved across all four input rows (TT=8 is AND).
	prog := &Program{Inputs: []string{"a", "b"}, Outputs: []string{"y"}, Run: OptimizeStmt(p.Run).(*BlockStmt)}
	for _, tc := range []struct{ a, b, want int64 }{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 1}} {
		env := newFakeEnv()
		env.in["a"], env.in["b"] = tc.a, tc.b
		if err := Eval(prog, env); err != nil {
			t.Fatal(err)
		}
		if env.out["y"] != tc.want {
			t.Fatalf("and(%d,%d) = %d, want %d", tc.a, tc.b, env.out["y"], tc.want)
		}
	}
}

func TestOptimizePreservesSemanticsProperty(t *testing.T) {
	// Random expressions evaluate identically before and after
	// optimization.
	rng := rand.New(rand.NewSource(73))
	f := func(av, bv, cv int8) bool {
		src := "input a, b, c; output y; run { y = " + randomExpr(rng, 4) + "; }"
		p, err := Parse(src)
		if err != nil {
			return false
		}
		opt := &Program{Inputs: p.Inputs, Outputs: p.Outputs, Run: OptimizeStmt(p.Run).(*BlockStmt)}
		in := map[string]int64{"a": int64(av), "b": int64(bv), "c": int64(cv)}
		e1, e2 := newFakeEnv(), newFakeEnv()
		for k, v := range in {
			e1.in[k], e2.in[k] = v, v
		}
		err1 := Eval(p, e1)
		err2 := Eval(opt, e2)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return e1.out["y"] == e2.out["y"]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestOptimizeProgramClones checks optimizing a program's statement
// tree clones it: OptimizeStmt returns fresh nodes, so the simplified
// tree differs and the program's own tree does not.
func TestOptimizeProgramClones(t *testing.T) {
	p := MustParse("input a; output y; run { y = a + 0; }")
	o := OptimizeStmt(p.Run)
	if FormatStmt(p.Run) == FormatStmt(o) {
		t.Fatal("optimization did nothing")
	}
	if !containsStr(FormatStmt(p.Run), "a + 0") {
		t.Fatal("original mutated")
	}
}
