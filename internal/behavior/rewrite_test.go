package behavior

import "testing"

func TestRewriteIdentityIsNoop(t *testing.T) {
	p := MustParse(toggleSrc)
	got, err := RewriteStmt(p.Run, NewSubst())
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(p.Run, got) {
		t.Fatalf("identity rewrite changed tree:\n%s\nvs\n%s", FormatStmt(p.Run), FormatStmt(got))
	}
}

func TestRewriteReadsAndWrites(t *testing.T) {
	p := MustParse("input a; output y; run { y = a + 1; }")
	sub := NewSubst()
	sub.Reads["a"] = &Ident{Name: "w3"}
	sub.Writes["y"] = "w4"
	got, err := RewriteStmt(p.Run, sub)
	if err != nil {
		t.Fatal(err)
	}
	if s := FormatStmt(got); s != "{\n    w4 = w3 + 1;\n}" {
		t.Fatalf("rewrite = %q", s)
	}
}

func TestRewriteEdgeFns(t *testing.T) {
	p := MustParse("input a; output y; run { if (rising(a)) { y = 1; } }")
	sub := NewSubst()
	sub.EdgeFns["a"] = EdgePair{Cur: &Ident{Name: "w1"}, Prev: &Ident{Name: "p1"}}
	got, err := RewriteStmt(p.Run, sub)
	if err != nil {
		t.Fatal(err)
	}
	cond := got.(*BlockStmt).Stmts[0].(*IfStmt).Cond
	if s := FormatExpr(cond); s != "w1 && !p1" {
		t.Fatalf("rising rewrite = %q", s)
	}

	for fun, want := range map[string]string{
		"falling": "!w1 && p1",
		"changed": "w1 != p1",
		"prev":    "p1",
	} {
		p := MustParse("input a; output y; run { y = " + fun + "(a); }")
		got, err := RewriteStmt(p.Run, sub)
		if err != nil {
			t.Fatal(err)
		}
		x := got.(*BlockStmt).Stmts[0].(*AssignStmt).X
		if s := FormatExpr(x); s != want {
			t.Errorf("%s rewrite = %q, want %q", fun, s, want)
		}
	}
}

func TestRewriteEdgeFnRenameToIdent(t *testing.T) {
	// When an input is merely renamed to another input identifier, edge
	// builtins survive with the renamed argument.
	p := MustParse("input a; output y; run { y = rising(a); }")
	sub := NewSubst()
	sub.Reads["a"] = &Ident{Name: "in0"}
	got, err := RewriteStmt(p.Run, sub)
	if err != nil {
		t.Fatal(err)
	}
	x := got.(*BlockStmt).Stmts[0].(*AssignStmt).X
	if s := FormatExpr(x); s != "rising(in0)" {
		t.Fatalf("rename rewrite = %q", s)
	}
	// Replacing an edge argument with a non-identifier without EdgeFns
	// must be rejected.
	sub2 := NewSubst()
	sub2.Reads["a"] = &IntLit{Val: 1}
	if _, err := RewriteStmt(p.Run, sub2); err == nil {
		t.Fatal("non-identifier edge substitution accepted")
	}
}

func TestRewriteTimerTagging(t *testing.T) {
	p := MustParse(`input a; output y; run {
        if (rising(a)) { schedule(100); }
        if (timer) { y = 1; }
    }`)
	sub := NewSubst()
	sub.TimerTag = 5
	got, err := RewriteStmt(p.Run, sub)
	if err != nil {
		t.Fatal(err)
	}
	s := FormatStmt(got)
	for _, want := range []string{"scheduletag(5, 100)", "timertag(5)"} {
		if !containsStr(s, want) {
			t.Errorf("tagged rewrite missing %q:\n%s", want, s)
		}
	}
	// Re-tagging an already tagged program overrides the tag.
	p2 := MustParse("input a; output y; run { scheduletag(2, 9); y = timertag(2); }")
	got2, err := RewriteStmt(p2.Run, sub)
	if err != nil {
		t.Fatal(err)
	}
	s2 := FormatStmt(got2)
	for _, want := range []string{"scheduletag(5, 9)", "timertag(5)"} {
		if !containsStr(s2, want) {
			t.Errorf("re-tag rewrite missing %q:\n%s", want, s2)
		}
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && index(s, sub) >= 0
}

func index(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
