package bench

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/randgen"
)

// paperTable2Counts reproduces the Number of Designs column of Table 2.
var paperTable2Counts = map[int]int{
	3: 1531, 4: 982, 5: 542, 6: 432, 7: 447, 8: 350, 9: 340,
	10: 199, 11: 170, 12: 31, 13: 6,
	14: 1311, 15: 1184, 20: 928, 25: 691, 35: 354, 45: 165,
}

// paperTable2Sizes lists the Inner Blocks (Original) rows of Table 2 in
// order.
var paperTable2Sizes = []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 20, 25, 35, 45}

// Table2Options configure the random-design sweep.
type Table2Options struct {
	// Constraints of the programmable block; zero means 2x2.
	Constraints core.Constraints
	// Scale multiplies the paper's per-size design counts (the paper
	// ran ~9,700 designs; Scale 0.05 runs ~480). Values > 0; at least
	// one design always runs per size. Default 1.0.
	Scale float64
	// Sizes to sweep; default the paper's 17 sizes.
	Sizes []int
	// ExhaustiveLimit: largest size on which exhaustive runs (the
	// paper has data to 13). Default 13.
	ExhaustiveLimit int
	// ExhaustiveTimeout bounds each exhaustive run; a size whose runs
	// time out reports no exhaustive data. Default 1 minute.
	ExhaustiveTimeout time.Duration
	// Seed offsets the generator seeds, keeping sweeps reproducible.
	Seed int64
	// Algorithm names the heuristic compared against the exhaustive
	// search (any core registry name); default "paredown".
	Algorithm string
	// Workers bounds the pool running (size, design) work items
	// concurrently; 0 means GOMAXPROCS, 1 forces the sequential
	// harness. Row order and averages are deterministic either way.
	Workers int
}

func (o Table2Options) constraints() core.Constraints {
	if o.Constraints.MaxInputs == 0 && o.Constraints.MaxOutputs == 0 {
		return core.DefaultConstraints
	}
	return o.Constraints
}

func (o Table2Options) scale() float64 {
	if o.Scale <= 0 {
		return 1
	}
	return o.Scale
}

func (o Table2Options) sizes() []int {
	if len(o.Sizes) == 0 {
		return paperTable2Sizes
	}
	return o.Sizes
}

func (o Table2Options) limit() int {
	if o.ExhaustiveLimit == 0 {
		return 13
	}
	return o.ExhaustiveLimit
}

func (o Table2Options) timeout() time.Duration {
	if o.ExhaustiveTimeout == 0 {
		return time.Minute
	}
	return o.ExhaustiveTimeout
}

func (o Table2Options) algorithm() string { return heuristicAlgo(o.Algorithm) }

// Table2Row aggregates one inner-block size, mirroring Table 2's
// columns (averages over the size's designs).
type Table2Row struct {
	Inner      int
	NumDesigns int

	ExhRan   bool
	ExhTotal float64 // avg Inner Blocks (Total)
	ExhProg  float64 // avg Inner Blocks (Prog.)
	ExhTime  time.Duration

	PDTotal float64
	PDProg  float64
	PDTime  time.Duration

	BlockOverhead float64
	OverheadPct   float64
}

// table2Cell is the measurement of one generated design.
type table2Cell struct {
	pdCost, pdProg int
	pdTime         time.Duration
	exDone         bool
	exTimeout      bool
	exCost, exProg int
	exTime         time.Duration
}

// RunTable2 reproduces Table 2: for each size, generate designs, run
// both algorithms, and average the outcomes. All (size, design) work
// items run concurrently over a bounded worker pool; per-design
// results are collected into an index-addressed grid and aggregated in
// order, so rows and averages are deterministic regardless of
// scheduling. A size on which any exhaustive run times out reports no
// exhaustive data (once a size trips its timeout flag, remaining
// designs of that size skip the search).
func RunTable2(opts Table2Options) ([]Table2Row, error) {
	c := opts.constraints()
	sizes := opts.sizes()

	counts := make([]int, len(sizes))
	cells := make([][]table2Cell, len(sizes))
	timedOut := make([]atomic.Bool, len(sizes))
	type item struct{ si, di int }
	var items []item
	for si, size := range sizes {
		count := paperTable2Counts[size]
		if count == 0 {
			count = 100
		}
		count = int(float64(count) * opts.scale())
		if count < 1 {
			count = 1
		}
		counts[si] = count
		cells[si] = make([]table2Cell, count)
		for di := 0; di < count; di++ {
			items = append(items, item{si, di})
		}
	}

	err := ParallelFor(len(items), opts.Workers, func(k int) error {
		si, di := items[k].si, items[k].di
		size := sizes[si]
		cell := &cells[si][di]
		d := randgen.MustGenerate(randgen.Params{
			InnerBlocks: size,
			Seed:        opts.Seed + int64(size)*100003 + int64(di),
		})
		g := d.Graph()

		start := time.Now()
		pd, err := core.Partition(g, opts.algorithm(), c, core.Options{})
		if err != nil {
			return fmt.Errorf("bench: table2 size %d design %d: %w", size, di, err)
		}
		cell.pdTime = time.Since(start)
		cell.pdCost = pd.Cost()
		cell.pdProg = len(pd.Partitions)

		if size <= opts.limit() && !timedOut[si].Load() {
			ctx, cancel := context.WithTimeout(context.Background(), opts.timeout())
			start = time.Now()
			// Sequential search per design (on this goroutine): ExhTime
			// mirrors the paper's single-threaded methodology;
			// parallelism lives at the work-item level.
			ex, err := core.Exhaustive(g, c, core.ExhaustiveOptions{Ctx: ctx})
			cell.exTime = time.Since(start)
			cancel()
			if err == context.DeadlineExceeded {
				cell.exTimeout = true
				timedOut[si].Store(true)
			} else if err != nil {
				return fmt.Errorf("bench: table2 exhaustive size %d design %d: %w", size, di, err)
			} else {
				cell.exDone = true
				cell.exCost = ex.Cost()
				cell.exProg = len(ex.Partitions)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	rows := make([]Table2Row, 0, len(sizes))
	for si, size := range sizes {
		count := counts[si]
		row := Table2Row{Inner: size, NumDesigns: count}
		var pdTotal, pdProg, exTotal, exProg float64
		var pdElapsed, exElapsed time.Duration
		// Exhaustive data is reported only if every design of the size
		// finished within the timeout.
		exOK := size <= opts.limit()
		for di := 0; di < count; di++ {
			cell := &cells[si][di]
			pdElapsed += cell.pdTime
			pdTotal += float64(cell.pdCost)
			pdProg += float64(cell.pdProg)
			if cell.exDone {
				exElapsed += cell.exTime
				exTotal += float64(cell.exCost)
				exProg += float64(cell.exProg)
			} else {
				exOK = false
			}
		}
		n := float64(count)
		row.PDTotal = pdTotal / n
		row.PDProg = pdProg / n
		row.PDTime = pdElapsed / time.Duration(count)
		if exOK {
			row.ExhRan = true
			row.ExhTotal = exTotal / n
			row.ExhProg = exProg / n
			row.ExhTime = exElapsed / time.Duration(count)
			row.BlockOverhead = row.PDTotal - row.ExhTotal
			if row.ExhTotal > 0 {
				row.OverheadPct = 100 * row.BlockOverhead / row.ExhTotal
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable2 renders the rows in the paper's layout.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: Results for exhaustive search and PareDown decomposition using randomly generated designs\n")
	b.WriteString(strings.Repeat("-", 112) + "\n")
	fmt.Fprintf(&b, "%-6s %-8s | %9s %9s %10s | %9s %9s %10s | %9s %9s\n",
		"Inner", "Designs", "ExhTotal", "ExhProg", "ExhTime",
		"PDTotal", "PDProg", "PDTime", "Overhead", "%Overhead")
	b.WriteString(strings.Repeat("-", 112) + "\n")
	for _, r := range rows {
		exT, exP, exTime, ov, ovPct := "--", "--", "--", "--", "--"
		if r.ExhRan {
			exT = fmt.Sprintf("%.2f", r.ExhTotal)
			exP = fmt.Sprintf("%.2f", r.ExhProg)
			exTime = fmtDuration(r.ExhTime)
			ov = fmt.Sprintf("%.2f", r.BlockOverhead)
			ovPct = fmt.Sprintf("%.0f %%", r.OverheadPct)
		}
		fmt.Fprintf(&b, "%-6d %-8d | %9s %9s %10s | %9.2f %9.2f %10s | %9s %9s\n",
			r.Inner, r.NumDesigns, exT, exP, exTime,
			r.PDTotal, r.PDProg, fmtDuration(r.PDTime), ov, ovPct)
	}
	b.WriteString(strings.Repeat("-", 112) + "\n")
	return b.String()
}
