// Command eblocksynth synthesizes an eBlock design: it partitions the
// pre-defined compute blocks onto a minimum number of programmable
// blocks, merges each partition's behavior into one program, and writes
// the optimized network plus C firmware (the Partitioning + Code
// Generation boxes of the paper's Figure 2).
//
// Usage:
//
//	eblocksynth -design garage.ebk -o synth.ebk -c firmware.c
//	eblocksynth -library "Podium Timer 3" -algo exhaustive -verify
//	eblocksynth -library "Podium Timer 3" -json   # machine-readable output
//
// Incremental mode re-synthesizes an edited variant of a base design,
// adopting every stage artifact the edits did not invalidate from a
// persistent stage cache (shared with eblocksd when pointed at the
// same -store-dir):
//
//	eblocksynth -base garage.ebk -edits edits.json -store-dir ~/.eblocks
//
// where edits.json is a JSON array of edit operations (the same schema
// as the /v1/delta endpoint's "edits" field).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/synth"
)

func main() {
	algoHelp := "partitioner: " + strings.Join(core.Algorithms(), " | ")
	var (
		designPath = flag.String("design", "", "path to a .ebk design file")
		library    = flag.String("library", "", "name of a built-in Table 1 design")
		algorithm  = flag.String("algo", "paredown", algoHelp)
		maxIn      = flag.Int("inputs", 2, "programmable block input budget")
		maxOut     = flag.Int("outputs", 2, "programmable block output budget")
		outPath    = flag.String("o", "", "write the synthesized design (.ebk) here (default stdout)")
		cPath      = flag.String("c", "", "write generated C firmware here")
		verify     = flag.Bool("verify", false, "simulate both designs on random stimuli and compare outputs")
		paperMode  = flag.Bool("papermode", false, "use the paper's exact fit check (no convexity guard); may be unrealizable")
		dot        = flag.Bool("dot", false, "print the partitioned design in Graphviz dot")
		parts      = flag.Bool("partitions", false, "print the partition membership summary")
		jsonOut    = flag.Bool("json", false, "emit the synthesized design + partition summary as JSON (the eblocksd response schema) instead of .ebk")
		basePath   = flag.String("base", "", "incremental mode: path to (or library name of) the BASE design; -edits supplies the mutations")
		editsPath  = flag.String("edits", "", "incremental mode: path to a JSON edit list (array of /v1/delta edit objects)")
		storeDir   = flag.String("store-dir", "", "incremental mode: persistent stage-cache directory (share eblocksd's to adopt its artifacts); empty runs cold")
	)
	flag.StringVar(algorithm, "algorithm", "paredown", algoHelp+" (alias of -algo)")
	flag.Parse()

	synthOpts := synth.Options{
		Constraints: core.Constraints{MaxInputs: *maxIn, MaxOutputs: *maxOut},
		Algorithm:   synth.Algorithm(*algorithm),
		PaperMode:   *paperMode,
	}
	var (
		res *cli.SynthesizeResult
		ca  *synth.Captured
	)
	if *basePath != "" {
		if *verify || *dot || *parts {
			fatal(fmt.Errorf("-verify/-dot/-partitions are not supported with -base"))
		}
		em := runDelta(*basePath, *editsPath, *storeDir, synthOpts)
		res, ca = cli.NewSynthesizeResult(em.Output()), em.Captured
	} else {
		if *editsPath != "" {
			fatal(fmt.Errorf("-edits requires -base"))
		}
		d, err := cli.LoadDesign(*designPath, *library)
		if err != nil {
			fatal(err)
		}
		res, err = cli.SynthesizeReport(os.Stderr, d, cli.SynthesizeOptions{
			Synth:  synthOpts,
			Verify: *verify,
			DOT:    *dot,
		})
		if err != nil {
			fatal(err)
		}
		if *parts {
			fmt.Fprint(os.Stderr, cli.PartitionSummary(d, res.Output.Result))
		}
		if *dot {
			fmt.Println(res.DOT)
		}
		if *jsonOut {
			if ca, err = synth.Capture(d, synthOpts); err != nil {
				fatal(err)
			}
		}
	}

	payload := res.NetlistEBK
	if *jsonOut {
		resp, err := service.NewResponse(res.Output, ca)
		if err != nil {
			fatal(err)
		}
		raw, err := json.MarshalIndent(resp, "", "  ")
		if err != nil {
			fatal(err)
		}
		payload = string(raw) + "\n"
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(payload), 0o644); err != nil {
			fatal(err)
		}
	} else if !*dot || *jsonOut {
		// -dot alone claims stdout for the graph; an explicit -json
		// still gets its payload (after the graph when both are given).
		fmt.Print(payload)
	}
	if *cPath != "" {
		if err := os.WriteFile(*cPath, []byte(res.CSource), 0o644); err != nil {
			fatal(err)
		}
	}
}

// runDelta is incremental mode: apply a JSON edit list to the base
// design and re-synthesize, adopting unchanged stage artifacts from
// the persistent stage cache. The adopted/recomputed split is reported
// on stderr; the caller writes the outputs as full mode does.
func runDelta(basePath, editsPath, storeDir string, opts synth.Options) *synth.Emitted {
	if editsPath == "" {
		fatal(fmt.Errorf("-base requires -edits (a JSON array of edit objects)"))
	}
	base, err := cli.LoadDesign(basePath, "")
	if err != nil {
		// Fall back to treating -base as a library name, mirroring the
		// -design/-library pair without needing two flags.
		var lerr error
		if base, lerr = cli.LoadDesign("", basePath); lerr != nil {
			fatal(err)
		}
	}
	raw, err := os.ReadFile(editsPath)
	if err != nil {
		fatal(err)
	}
	var edits []synth.Edit
	if err := json.Unmarshal(raw, &edits); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", editsPath, err))
	}

	var cache synth.StageCache
	if storeDir != "" {
		st, err := store.Open(storeDir, store.Options{})
		if err != nil {
			fatal(err)
		}
		defer st.Close()
		cache = service.StageCacheOver(st)
	}

	baseCa, err := synth.Capture(base, opts)
	if err != nil {
		fatal(err)
	}
	ca, err := synth.CaptureDelta(baseCa, edits)
	if err != nil {
		fatal(err)
	}
	em, stats, err := synth.SynthesizeCaptured(context.Background(), ca, cache)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "delta: partitionFromCache=%t adopted=%d recomputed=%d\n",
		stats.PartitionFromCache, stats.Adopted, stats.Recomputed)
	return em
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eblocksynth:", err)
	os.Exit(1)
}
