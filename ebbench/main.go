// Command ebbench is the eblocks benchmark: one process that sets up a
// workload from a seed, measures it for a fixed time, checks its
// outputs, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Without --trace the metrics are the end-to-end ones; with --trace 1
// the run is split into an untraced and a traced half and the metrics
// are the per-layer ones (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is what a workload is built from.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks populations and item counts (1 = full size); the
	// package tests use it for smoke runs.
	scale float64
	// dir is the scratch directory for stores; removed at exit.
	dir string
}

// workload is one benchmark workload after set-up.
type workload interface {
	// measure runs the timed loop for about d. tr is nil in untraced
	// phases. Successive calls continue the workload's item sequence.
	measure(d time.Duration, tr *tracer) phase
	// check verifies outputs after the timed phases and returns one
	// message per failed check.
	check() []string
	// extra returns the workload's own end-to-end metrics.
	extra() []metric
	// layers derives the per-layer metrics from a traced phase.
	layers(tr *tracer, ph phase) map[string]float64
	close()
}

// workloads maps names to constructors; a constructor does the whole
// set-up, so its wall time is the set-up time.
var workloads = map[string]func(cfg *config) (workload, error){
	"paper-partition": newPaperPartition,
	"serve-cold":      newServeCold,
	"serve-steady":    newServeSteady,
	"sim-stream":      newSimStream,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result is the final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// A run sets its workload up at least minSetups times, and again until
// the set-ups took setupBudget or maxSetups were made; setup_s is the
// median. Cheap set-ups are repeated more, because a few milliseconds
// of scheduling noise is a large share of them.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = time.Second
)

// deadline bounds a whole run: a benchmark process that has not
// finished by then exits non-zero without printing a result.
const deadline = 170 * time.Second

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured time per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.scale = 1

	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "ebbench: run exceeded %s\n", deadline)
		os.Exit(3)
	})
	traceOut := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-%d.json", cfg.workload, cfg.seed))
	res, err := run(&cfg, os.Stdout, traceOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ebbench: %v\n", err)
		os.Exit(2)
	}
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up, measures it, checks it and returns the
// result line; human-readable metric lines go to out.
func run(cfg *config, out io.Writer, traceOut string) (*result, error) {
	build, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir

	// setup holds each set-up's scaled CPU time (hostspeed.go), wall
	// its wall time.
	var setup, wall []time.Duration
	var total time.Duration
	var w workload
	for {
		start, m, c0 := time.Now(), startHostMeter(), processCPU()
		wi, err := build(cfg)
		c1 := processCPU()
		f, spent := m.end()
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		setup = append(setup, scaleCPU(c1-c0-spent, f))
		wall = append(wall, time.Since(start))
		total += wall[len(wall)-1]
		if cfg.scale < 1 || len(setup) >= maxSetups || (len(setup) >= minSetups && total >= setupBudget) {
			w = wi
			break
		}
		wi.close()
		runtime.GC() // free this set-up before the next one is built
	}
	defer w.close()

	d := time.Duration(cfg.seconds * float64(time.Second))
	res := &result{Metrics: map[string]metricJSON{}}
	var phases []phase
	var lines []metric
	if !cfg.trace {
		ph := measureCPU(w, d)
		phases = append(phases, ph)
		lines = append(endToEnd(setup, ph), metric{"setup_wall_s", medianDuration(wall).Seconds(), "s", len(wall)})
		lines = append(lines, w.extra()...)
		for _, m := range lines {
			if endToEndNames[m.Name] {
				res.Metrics[m.Name] = metricJSON{m.Value, m.Unit}
			}
		}
	} else {
		untraced := w.measure(d/2, nil)
		tr := newTracer()
		traced := w.measure(d/2, tr)
		phases = append(phases, untraced, traced)
		layers := w.layers(tr, traced)
		u, t := sortedCopy(untraced.Lat), sortedCopy(traced.Lat)
		layers["trace.overhead_ms"] = ms(quantile(t, 0.5) - quantile(u, 0.5))
		layers["trace.spans"] = float64(len(tr.snapshot()))
		layers["runtime.alloc_bytes_per_op"] = perOp(float64(untraced.AllocBytes), len(untraced.Lat))
		layers["runtime.gc_cpu_ms"] = ms(untraced.GCCPU)
		for _, name := range perLayerNames {
			v := layers[name]
			res.Metrics[name] = metricJSON{v, perLayerUnit(name)}
			lines = append(lines, metric{Name: name, Value: v, Unit: perLayerUnit(name), N: len(traced.Lat)})
		}
		if err := writeSpans(traceOut, tr.snapshot()); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(out, "spans: %s\n", traceOut)
	}

	for _, ph := range phases {
		res.Attempted += ph.attempted()
		res.Failed += ph.Failed
		for _, e := range ph.Errs {
			fmt.Fprintf(out, "FAIL op: %s\n", e)
		}
	}
	for _, e := range w.check() {
		res.Failed++
		fmt.Fprintf(out, "FAIL check: %s\n", e)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Fprintf(out, "workload %s seed %d seconds %g trace %t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, m := range lines {
		fmt.Fprintf(out, "  %-40s %14.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	for i, ph := range phases {
		fmt.Fprintf(out, "  phase %d slices (ops/s p50 p95 ms):", i)
		for _, s := range cut(ph, ph.slices(windows)) {
			fmt.Fprintf(out, " [%.1f %.3f %.3f]", float64(len(s.lat))/s.secs, ms(quantile(s.lat, 0.5)), ms(quantile(s.lat, 0.95)))
		}
		fmt.Fprintln(out)
	}
	return res, nil
}

// measureCPU runs an untraced phase and fills its scaled CPU time,
// metering the host around it; paper-partition meters itself per pass.
func measureCPU(w workload, d time.Duration) phase {
	if _, ok := w.(*paperPartition); ok {
		return w.measure(d, nil)
	}
	m := startHostMeter()
	c0 := processCPU()
	ph := w.measure(d, nil)
	c1 := processCPU()
	f, spent := m.end()
	ph.CPU = scaleCPU(c1-c0-spent, f)
	return ph
}

// perOp divides a phase total by its op count.
func perOp(total float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return total / float64(ops)
}
