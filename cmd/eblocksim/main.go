// Command eblocksim simulates an eBlock design (.ebk file): it applies
// a stimulus script and prints the trace of primary-output changes,
// replacing the interactive simulator of the paper's Figure 3.
//
// Usage:
//
//	eblocksim -design garage.ebk -script stimuli.txt [-until 10000] [-all]
//	eblocksim -library "Podium Timer 3" -script stimuli.txt -vcd out.vcd
//	eblocksim -library "Night Lamp Controller" -script stimuli.txt -json
//	eblocksim -library "Night Lamp Controller" -script stimuli.txt -until 100000000 -stream
//	eblocksim -serve :8080
//
// -json emits the eblocksd /v1/simulate response schema instead of the
// human-readable report, and -serve starts the eblocksd HTTP API
// (memory-only, no persistent store) — both are produced by the same
// service code the daemon runs, so CLI and server outputs are
// byte-compatible. -stream writes the trace to stdout as NDJSON change
// records as they happen, in bounded memory, so horizons far beyond
// what a buffered trace could hold are fine.
//
// Behaviors are evaluated on the compiled bytecode VM.
//
// The stimulus script has one event per line:
//
//	# time_ms block value
//	at 100 set door 1
//	at 900 set light 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/designs"
	"repro/internal/service"
	"repro/internal/sim"
)

func main() {
	var (
		designPath = flag.String("design", "", "path to a .ebk design file")
		library    = flag.String("library", "", "name of a built-in Table 1 design (see -list)")
		list       = flag.Bool("list", false, "list built-in designs and exit")
		scriptPath = flag.String("script", "", "stimulus script (default: no stimuli)")
		until      = flag.Int64("until", 0, "run until this time in ms (default: quiescence)")
		traceAll   = flag.Bool("all", false, "trace every block, not just primary outputs")
		wireDelay  = flag.Int64("wiredelay", 1, "packet propagation delay per wire in ms")
		delta      = flag.Bool("delta", false, "use glitch-free delta-cycle semantics (zero wire delay)")
		vcdPath    = flag.String("vcd", "", "write the trace as a VCD waveform to this file")
		stats      = flag.Bool("stats", false, "print structural statistics before simulating")
		jsonOut    = flag.Bool("json", false, "print the eblocksd /v1/simulate response schema instead of the report")
		stream     = flag.Bool("stream", false, "stream the trace to stdout as NDJSON change records in bounded memory instead of buffering it")
		serve      = flag.String("serve", "", "serve the eblocksd HTTP API on this address instead of simulating (memory-only)")
	)
	flag.Parse()

	if *list {
		for _, n := range designs.Names() {
			fmt.Println(n)
		}
		return
	}
	if *serve != "" {
		svc := service.New(service.Config{})
		log.Printf("eblocksim: serving the eblocksd API on %s (memory-only)", *serve)
		srv := &http.Server{Addr: *serve, Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
		fatal(srv.ListenAndServe())
	}
	d, err := cli.LoadDesign(*designPath, *library)
	if err != nil {
		fatal(err)
	}
	if *stats {
		if err := cli.DescribeDesign(os.Stdout, d); err != nil {
			fatal(err)
		}
	}
	opts := cli.SimulateOptions{
		Until: *until,
		Config: sim.Config{
			TraceAll:    *traceAll,
			WireDelay:   *wireDelay,
			DeltaCycles: *delta,
			Compiled:    true,
		},
	}
	if *scriptPath != "" {
		raw, err := os.ReadFile(*scriptPath)
		if err != nil {
			fatal(err)
		}
		opts.Script = string(raw)
	}
	if *stream {
		// Long-horizon mode: changes go straight to stdout through the
		// bounded NDJSON sink; nothing accumulates in memory.
		var stimuli []sim.Stimulus
		if opts.Script != "" {
			if stimuli, err = sim.ParseScript(opts.Script); err != nil {
				fatal(err)
			}
		}
		sm, err := sim.New(d, opts.Config)
		if err != nil {
			fatal(err)
		}
		sink := sim.NewNDJSONSink(os.Stdout, 0)
		sm.SetSink(sink)
		if err := sm.Stimulate(stimuli...); err != nil {
			fatal(err)
		}
		if *until > 0 {
			err = sm.Run(*until)
		} else {
			_, err = sm.RunToQuiescence()
		}
		if ferr := sink.Flush(); err == nil {
			err = ferr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "eblocksim: streamed %d changes over %d events to t=%d ms\n",
			sm.ChangesEmitted(), sm.EventsProcessed(), sm.Now())
		return
	}
	if *jsonOut {
		// Run through the service layer so the document is exactly what
		// eblocksd's /v1/simulate would return for the same job.
		var stimuli []sim.Stimulus
		if opts.Script != "" {
			if stimuli, err = sim.ParseScript(opts.Script); err != nil {
				fatal(err)
			}
		}
		svc := service.New(service.Config{})
		resp, _, err := svc.Simulate(context.Background(), service.SimulateJob{
			Design: d, Stimuli: stimuli, Until: *until, Config: opts.Config,
		})
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resp); err != nil {
			fatal(err)
		}
		// -vcd composes with -json: the waveform comes from the same run.
		if *vcdPath != "" {
			f, err := os.Create(*vcdPath)
			if err != nil {
				fatal(err)
			}
			if err := sim.WriteVCD(f, resp.Trace, d.Name); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "eblocksim: wrote waveform to %s\n", *vcdPath)
		}
		return
	}
	var vcdFile *os.File
	if *vcdPath != "" {
		vcdFile, err = os.Create(*vcdPath)
		if err != nil {
			fatal(err)
		}
		opts.VCD = vcdFile
	}
	if err := cli.Simulate(os.Stdout, d, opts); err != nil {
		fatal(err)
	}
	if vcdFile != nil {
		if err := vcdFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "eblocksim: wrote waveform to %s\n", *vcdPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eblocksim:", err)
	os.Exit(1)
}
