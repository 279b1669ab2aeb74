// Command eblockgen emits random eBlock designs (the paper's Section
// 5.1 randomized system generator, used to produce the Table 2
// workloads) and converts designs between the .ebk text format and the
// JSON wire form.
//
// Usage:
//
//	eblockgen -inner 20 -seed 7 > random.ebk
//	eblockgen -inner 20 -format json > random.json
//	eblockgen -convert design.ebk -format json > design.json
//	eblockgen -convert design.json -format ebk > design.ebk
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/netlist"
	"repro/internal/randgen"
)

func main() {
	var (
		inner      = flag.Int("inner", 10, "number of inner (compute) blocks")
		seed       = flag.Int64("seed", 1, "generator seed")
		sensorProb = flag.Float64("sensorprob", 0.35, "probability an input connects to a sensor")
		threeProb  = flag.Float64("threeprob", 0.12, "probability of a 3-input block")
		seqProb    = flag.Float64("seqprob", 0.3, "probability of a sequential block")
		stats      = flag.Bool("stats", false, "print design statistics to stderr")
		convert    = flag.String("convert", "", "convert an existing design file (.ebk or .json) instead of generating one")
		format     = flag.String("format", "ebk", "output format: ebk | json")
	)
	flag.Parse()

	if *format != "ebk" && *format != "json" {
		fatal(fmt.Errorf("unknown -format %q (want ebk or json)", *format))
	}

	var (
		d   *netlist.Design
		err error
	)
	if *convert != "" {
		d, err = cli.LoadDesign(*convert, "")
	} else {
		d, err = randgen.Generate(randgen.Params{
			InnerBlocks:    *inner,
			Seed:           *seed,
			SensorProb:     *sensorProb,
			ThreeInputProb: *threeProb,
			SequentialProb: *seqProb,
		})
	}
	if err != nil {
		fatal(err)
	}

	if *stats {
		st := d.Stats()
		fmt.Fprintf(os.Stderr, "eblockgen: %d sensors, %d inner, %d outputs, %d wires, depth %d\n",
			st.Sensors, st.Inner, st.Outputs, st.Edges, st.Depth)
	}

	if *format == "json" {
		raw, err := netlist.MarshalJSON(d)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(raw))
	} else {
		fmt.Print(netlist.Serialize(d))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eblockgen:", err)
	os.Exit(1)
}
