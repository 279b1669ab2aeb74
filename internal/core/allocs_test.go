//go:build !race

package core

import (
	"testing"

	"repro/internal/designs"
)

// These pins run without the race detector only: under it, sync.Pool
// drops a quarter of the workspaces handed back, at random, so a call
// may pay for a fresh workspace.

// raceEnabled reports whether the tests run under the race detector
// (raceflag_test.go sets it there).
const raceEnabled = false

// TestTable1Allocs pins the mean allocations per call on the Table 1
// designs with a warm workspace pool: PareDown on all 15, and the
// sequential exhaustive search on the 12 with at most 10 inner blocks.
// What is left is the Result itself: the partition clones, one
// allocation each, the Partitions and Uncovered lists, and the
// searcher's incumbents.
func TestTable1Allocs(t *testing.T) {
	var pd, ex float64
	var npd, nex int
	for _, e := range designs.Library() {
		g := e.Build().Graph()
		pd += testing.AllocsPerRun(20, func() {
			if _, err := PareDown(g, DefaultConstraints, PareDownOptions{}); err != nil {
				t.Fatal(err)
			}
		})
		npd++
		if len(g.InnerNodes()) <= 10 {
			ex += testing.AllocsPerRun(20, func() {
				if _, err := Exhaustive(g, DefaultConstraints, ExhaustiveOptions{Workers: 1}); err != nil {
					t.Fatal(err)
				}
			})
			nex++
		}
	}
	if npd != 15 || nex != 12 {
		t.Fatalf("%d PareDown and %d exhaustive designs, want 15 and 12", npd, nex)
	}
	if mean := pd / float64(npd); mean > 5.6 {
		t.Errorf("PareDown made %.2f allocations per Table 1 design, want at most 5.6", mean)
	}
	if mean := ex / float64(nex); mean > 7 {
		t.Errorf("Exhaustive made %.2f allocations per Table 1 design, want at most 7", mean)
	}
}
