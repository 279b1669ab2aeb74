package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/designs"
)

// Table1Options configure the library experiment.
type Table1Options struct {
	// Constraints of the programmable block; zero means the paper's
	// 2x2.
	Constraints core.Constraints
	// ExhaustiveLimit is the largest inner-block count on which the
	// exhaustive search is attempted (the paper stopped getting data
	// at 13; larger designs show "--"). Default 13.
	ExhaustiveLimit int
	// ExhaustiveTimeout aborts a single exhaustive run; expired runs
	// report no data. Default 2 minutes.
	ExhaustiveTimeout time.Duration
	// Algorithm names the heuristic compared against the exhaustive
	// search (any core registry name); default "paredown", the paper's
	// setup. The heuristic fills the PD* columns.
	Algorithm string
	// Workers bounds the pool running designs concurrently; 0 means
	// GOMAXPROCS, 1 forces the sequential harness. Row order is
	// deterministic either way.
	Workers int
}

func (o Table1Options) constraints() core.Constraints {
	if o.Constraints.MaxInputs == 0 && o.Constraints.MaxOutputs == 0 {
		return core.DefaultConstraints
	}
	return o.Constraints
}

func (o Table1Options) limit() int {
	if o.ExhaustiveLimit == 0 {
		return 13
	}
	return o.ExhaustiveLimit
}

func (o Table1Options) timeout() time.Duration {
	if o.ExhaustiveTimeout == 0 {
		return 2 * time.Minute
	}
	return o.ExhaustiveTimeout
}

func (o Table1Options) algorithm() string { return heuristicAlgo(o.Algorithm) }

// Table1Row is one design's measurements, mirroring the paper's
// columns.
type Table1Row struct {
	Design string
	Inner  int // Inner Blocks (Original)

	ExhRan   bool // false renders as the paper's "--"
	ExhTotal int  // Inner Blocks (Total), exhaustive
	ExhProg  int  // Inner Blocks (Prog.), exhaustive
	ExhTime  time.Duration

	PDTotal int
	PDProg  int
	PDTime  time.Duration

	// BlockOverhead = PDTotal - ExhTotal; OverheadPct the percentage
	// increase (both only when ExhRan).
	BlockOverhead int
	OverheadPct   float64

	// Paper reference values for the comparison columns (-1 = no
	// data).
	PaperExhTotal, PaperExhProg int
	PaperPDTotal, PaperPDProg   int
	Note                        string
}

// RunTable1 reproduces Table 1 over the reconstructed design library.
// Designs run concurrently over a bounded worker pool; rows come back
// in library order regardless of scheduling.
func RunTable1(opts Table1Options) ([]Table1Row, error) {
	c := opts.constraints()
	lib := designs.Library()
	rows := make([]Table1Row, len(lib))
	err := ParallelFor(len(lib), opts.Workers, func(i int) error {
		e := lib[i]
		d := e.Build()
		g := d.Graph()
		row := Table1Row{
			Design:        e.Name,
			Inner:         len(g.InnerNodes()),
			PaperExhTotal: e.PaperExhaustiveTotal,
			PaperExhProg:  e.PaperExhaustiveProg,
			PaperPDTotal:  e.PaperPareDownTotal,
			PaperPDProg:   e.PaperPareDownProg,
			Note:          e.Note,
		}

		start := time.Now()
		pd, err := core.Partition(g, opts.algorithm(), c, core.Options{})
		if err != nil {
			return fmt.Errorf("bench: %s: %w", e.Name, err)
		}
		row.PDTime = time.Since(start)
		row.PDTotal = pd.Cost()
		row.PDProg = len(pd.Partitions)

		if len(g.PartitionableNodes()) <= opts.limit() {
			ctx, cancel := context.WithTimeout(context.Background(), opts.timeout())
			start = time.Now()
			// The exhaustive search runs on this goroutine, so the
			// per-row ExhTime column mirrors the paper's single-threaded
			// methodology; the harness parallelizes across rows.
			ex, err := core.Exhaustive(g, c, core.ExhaustiveOptions{Ctx: ctx})
			elapsed := time.Since(start)
			cancel()
			if err == nil {
				row.ExhRan = true
				row.ExhTotal = ex.Cost()
				row.ExhProg = len(ex.Partitions)
				row.ExhTime = elapsed
				row.BlockOverhead = row.PDTotal - row.ExhTotal
				if row.ExhTotal > 0 {
					row.OverheadPct = 100 * float64(row.BlockOverhead) / float64(row.ExhTotal)
				}
			} else if err != context.DeadlineExceeded {
				return fmt.Errorf("bench: %s: exhaustive: %w", e.Name, err)
			}
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatTable1 renders the rows in the paper's layout.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1: Results for exhaustive search and PareDown decomposition using design library\n")
	b.WriteString(strings.Repeat("-", 118) + "\n")
	fmt.Fprintf(&b, "%-5s %-26s | %8s %8s %10s | %8s %8s %10s | %8s %9s\n",
		"Inner", "Design Name", "ExhTotal", "ExhProg", "ExhTime",
		"PDTotal", "PDProg", "PDTime", "Overhead", "%Overhead")
	b.WriteString(strings.Repeat("-", 118) + "\n")
	for _, r := range rows {
		exT, exP, exTime, ov, ovPct := "--", "--", "--", "--", "--"
		if r.ExhRan {
			exT = fmt.Sprintf("%d", r.ExhTotal)
			exP = fmt.Sprintf("%d", r.ExhProg)
			exTime = fmtDuration(r.ExhTime)
			ov = fmt.Sprintf("%d", r.BlockOverhead)
			ovPct = fmt.Sprintf("%.0f %%", r.OverheadPct)
		}
		fmt.Fprintf(&b, "%-5d %-26s | %8s %8s %10s | %8d %8d %10s | %8s %9s\n",
			r.Inner, r.Design, exT, exP, exTime,
			r.PDTotal, r.PDProg, fmtDuration(r.PDTime), ov, ovPct)
	}
	b.WriteString(strings.Repeat("-", 118) + "\n")
	b.WriteString("paper reference (exh total/prog, pd total/prog):\n")
	for _, r := range rows {
		pe := "--/--"
		if r.PaperExhTotal >= 0 {
			pe = fmt.Sprintf("%d/%d", r.PaperExhTotal, r.PaperExhProg)
		}
		fmt.Fprintf(&b, "  %-26s paper exh %-6s pd %d/%d   measured exh %s/%s pd %d/%d",
			r.Design, pe, r.PaperPDTotal, r.PaperPDProg,
			orDash(r.ExhRan, r.ExhTotal), orDash(r.ExhRan, r.ExhProg), r.PDTotal, r.PDProg)
		if r.Note != "" {
			fmt.Fprintf(&b, "   [%s]", r.Note)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func orDash(ok bool, v int) string {
	if !ok {
		return "--"
	}
	return fmt.Sprintf("%d", v)
}

// fmtDuration renders like the paper: "<1ms", "9ms", "4.79s",
// "3.67min".
func fmtDuration(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return "<1ms"
	case d < time.Second:
		return fmt.Sprintf("%dms", d.Milliseconds())
	case d < time.Minute:
		return fmt.Sprintf("%.2fs", d.Seconds())
	default:
		return fmt.Sprintf("%.2fmin", d.Minutes())
	}
}
