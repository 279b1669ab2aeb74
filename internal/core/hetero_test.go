package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func heteroChoices() []BlockChoice {
	return []BlockChoice{
		{Name: "Prog2x2", MaxInputs: 2, MaxOutputs: 2, Cost: 1.5},
		{Name: "Prog4x4", MaxInputs: 4, MaxOutputs: 4, Cost: 2.5},
	}
}

func TestHeteroValidate(t *testing.T) {
	p := HeteroProblem{Choices: heteroChoices(), PredefCost: 1}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []HeteroProblem{
		{PredefCost: 1},
		{Choices: []BlockChoice{{Name: "x", MaxInputs: 0, MaxOutputs: 1, Cost: 1}}, PredefCost: 1},
		{Choices: []BlockChoice{{Name: "x", MaxInputs: 1, MaxOutputs: 65, Cost: 1}}, PredefCost: 1},
		{Choices: []BlockChoice{{Name: "x", MaxInputs: 1, MaxOutputs: 1, Cost: 0}}, PredefCost: 1},
		{Choices: heteroChoices(), PredefCost: 0},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad problem %d validated", i)
		}
	}
}

func TestHeteroPrefersCheapestFittingType(t *testing.T) {
	// A 4-chain fits the small cheap block; the partitioner must pick
	// it over the big one.
	g := chainDesign(4)
	p := HeteroProblem{Choices: heteroChoices(), PredefCost: 1}
	res, err := PareDownHetero(g, p, PareDownOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(g, p); err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) != 1 || res.Assignments[0].Choice.Name != "Prog2x2" {
		t.Fatalf("assignments = %+v", res.Assignments)
	}
	if got, want := res.TotalCost(1), 1.5; got != want {
		t.Fatalf("total cost = %v, want %v", got, want)
	}
}

func TestHeteroUsesBiggerBlockWhenNeeded(t *testing.T) {
	// Two parallel gates (4 external inputs) cannot share a 2x2 block
	// but fit one 4x4 block, which at cost 2.5 beats two pre-defined
	// blocks (2.0)? No — 2.5 > 2.0, so it must NOT merge. With a
	// cheaper big block it must merge.
	g := parallelGates(2)
	pExpensive := HeteroProblem{Choices: heteroChoices(), PredefCost: 1}
	res, err := PareDownHetero(g, pExpensive, PareDownOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) != 0 {
		t.Fatalf("uneconomical merge accepted: %+v", res.Assignments)
	}
	if got := res.TotalCost(1); got != 2 {
		t.Fatalf("total = %v", got)
	}

	cheapBig := HeteroProblem{
		Choices: []BlockChoice{
			{Name: "Prog2x2", MaxInputs: 2, MaxOutputs: 2, Cost: 1.5},
			{Name: "Prog4x4", MaxInputs: 4, MaxOutputs: 4, Cost: 1.8},
		},
		PredefCost: 1,
	}
	res2, err := PareDownHetero(g, cheapBig, PareDownOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res2.Validate(g, cheapBig); err != nil {
		t.Fatal(err)
	}
	if len(res2.Assignments) != 1 || res2.Assignments[0].Choice.Name != "Prog4x4" {
		t.Fatalf("assignments = %+v", res2.Assignments)
	}
	if got := res2.TotalCost(1); got != 1.8 {
		t.Fatalf("total = %v", got)
	}
}

func TestHeteroMatchesHomogeneousSpecialCase(t *testing.T) {
	// With a single 2x2 choice priced between 1 and 2 pre-defined
	// blocks, hetero PareDown accepts exactly the partitions plain
	// PareDown accepts.
	rng := rand.New(rand.NewSource(43))
	p := HeteroProblem{
		Choices:    []BlockChoice{{Name: "Prog2x2", MaxInputs: 2, MaxOutputs: 2, Cost: 1.5}},
		PredefCost: 1,
	}
	for trial := 0; trial < 60; trial++ {
		g := randomTestDAG(rng, 2+rng.Intn(12))
		hz, err := PareDownHetero(g, p, PareDownOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pd, err := PareDown(g, DefaultConstraints, PareDownOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(hz.Assignments) != len(pd.Partitions) {
			t.Fatalf("trial %d: hetero %d partitions vs paredown %d", trial, len(hz.Assignments), len(pd.Partitions))
		}
		for i := range pd.Partitions {
			if !hz.Assignments[i].Partition.Equal(pd.Partitions[i]) {
				t.Fatalf("trial %d: partition %d differs", trial, i)
			}
		}
	}
}

func TestHeteroAlwaysValidProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	p := HeteroProblem{Choices: heteroChoices(), PredefCost: 1}
	f := func() bool {
		g := randomTestDAG(rng, 1+rng.Intn(15))
		res, err := PareDownHetero(g, p, PareDownOptions{})
		if err != nil {
			return false
		}
		return res.Validate(g, p) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHeteroTotalCostNeverExceedsAllPredef(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	p := HeteroProblem{Choices: heteroChoices(), PredefCost: 1}
	f := func() bool {
		g := randomTestDAG(rng, 1+rng.Intn(15))
		res, err := PareDownHetero(g, p, PareDownOptions{})
		if err != nil {
			return false
		}
		return res.TotalCost(1) <= float64(len(g.InnerNodes()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHeteroSingletonEconomics(t *testing.T) {
	// A lone gate is never replaced when the programmable block costs
	// more than one pre-defined block (the paper's singleton rule), but
	// IS replaced if some choice is cheaper than a pre-defined block.
	g := graph.New()
	s1 := g.MustAddNode("s1", graph.RolePrimaryInput, 0, 1)
	s2 := g.MustAddNode("s2", graph.RolePrimaryInput, 0, 1)
	v := g.MustAddNode("v", graph.RoleInner, 2, 1)
	o := g.MustAddNode("o", graph.RolePrimaryOutput, 1, 0)
	g.MustConnect(s1, 0, v, 0)
	g.MustConnect(s2, 0, v, 1)
	g.MustConnect(v, 0, o, 0)

	normal := HeteroProblem{Choices: heteroChoices(), PredefCost: 1}
	res, err := PareDownHetero(g, normal, PareDownOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) != 0 {
		t.Fatal("singleton replaced at a loss")
	}

	subsidized := HeteroProblem{
		Choices:    []BlockChoice{{Name: "Cheap2x2", MaxInputs: 2, MaxOutputs: 2, Cost: 0.5}},
		PredefCost: 1,
	}
	res2, err := PareDownHetero(g, subsidized, PareDownOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Assignments) != 1 {
		t.Fatal("profitable singleton replacement missed")
	}
}
