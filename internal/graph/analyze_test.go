package graph

import "testing"

func TestCriticalPath(t *testing.T) {
	g, n := diamond(t)
	path, err := g.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	// Depth is 4: s -> a -> (b|c) -> d -> o.
	if len(path) != 5 {
		t.Fatalf("path = %v", path)
	}
	if path[0] != g.Lookup("s") || path[len(path)-1] != g.Lookup("o") {
		t.Fatalf("endpoints wrong: %v", path)
	}
	// Path is connected with level +1 per hop.
	lvl, _ := g.Levels()
	for i := 1; i < len(path); i++ {
		if lvl[path[i]] != lvl[path[i-1]]+1 {
			t.Fatalf("non-monotone path at %d: %v", i, path)
		}
	}
	_ = n
}

func TestCriticalPathEmpty(t *testing.T) {
	g := New()
	g.MustAddNode("s", RolePrimaryInput, 0, 1)
	path, err := g.CriticalPath()
	if err != nil || path != nil {
		t.Fatalf("path = %v err = %v", path, err)
	}
}

func TestFanoutHistogram(t *testing.T) {
	g, _ := diamond(t)
	h := g.FanoutHistogram()
	// a has outdegree 2; s,b,c,d have 1 (d->o, s->a); o has 0.
	if h[2] != 1 || h[0] != 1 || h[1] != 4 {
		t.Fatalf("histogram = %v", h)
	}
	keys := SortedKeys(h)
	if len(keys) != 3 || keys[0] != 0 || keys[1] != 1 || keys[2] != 2 {
		t.Fatalf("keys = %v", keys)
	}
}

func TestLevelHistogram(t *testing.T) {
	g, _ := diamond(t)
	lvl, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	h := map[int]int{}
	for _, l := range lvl {
		h[l]++
	}
	// Levels: s=0, a=1, b=c=2, d=3, o=4.
	want := map[int]int{0: 1, 1: 1, 2: 2, 3: 1, 4: 1}
	for k, v := range want {
		if h[k] != v {
			t.Fatalf("histogram = %v, want %v", h, want)
		}
	}
	keys := SortedKeys(h)
	if len(keys) != 5 || keys[0] != 0 || keys[4] != 4 {
		t.Fatalf("keys = %v", keys)
	}
}
