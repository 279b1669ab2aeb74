package core

import (
	"testing"

	"repro/internal/graph"
)

// FuzzPareStep decodes an eBlock-shaped DAG whose inner blocks take 1
// to 3 inputs and drive 1 or 2 output pins, a budget and the
// tie-break switch, and drives the ranker through PareDown's loop on
// it: at every step the ranker's ordered border and pick must equal
// pareStep's, each member's border status graph.Border's, and each
// rank the PartitionIO brute force. randomTestDAG never builds a block
// wider than 2x1, so the property tests alone do not reach the widest
// rank buckets.
func FuzzPareStep(f *testing.F) {
	f.Add([]byte{0x04, 3, 12, 5, 0, 1, 2, 0, 3, 4, 1, 1, 6, 7, 0, 5, 9, 1, 2, 8, 3, 4, 1, 0, 7, 2})
	f.Add([]byte{0x82, 1, 20, 2, 9, 9, 9, 5, 6, 6, 4, 4, 1, 1, 5, 3, 7, 7, 2, 2, 5, 5, 0, 1, 1, 8})
	f.Add([]byte{0x10, 2, 30, 0xff, 0xfe, 0x13, 0x27, 0x31, 0x45, 0x52, 0x68, 0x7a, 0x81, 0x99, 0xa3, 0xb7})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, c, noTieBreaks := decodePareCase(data)
		if !rankerMatchesFromScratch(t, g, c, noTieBreaks) {
			t.Fatalf("ranker differs from the from-scratch pare step (budget %dx%d, tie-breaks off %v)",
				c.MaxInputs, c.MaxOutputs, noTieBreaks)
		}
	})
}

// decodePareCase reads a pare-step case from data, taking 0 for every
// byte past its end:
//
//   - a flags byte: budget inputs 1 + b%3, outputs 1 + b/3%3, and
//     DisableTieBreaks when the top bit is set;
//   - the sensor count, 1 + b%4, and the inner block count, 1 + b%40;
//   - per inner block, a shape byte (1 + b%3 inputs, 1 + b/3%2 output
//     pins) and one byte per input pin choosing a sensor (always for
//     the first block, else when b%3 == 0) or an earlier inner block,
//     followed by a byte choosing its output pin.
//
// Every inner block without a consumer feeds an output block from pin
// 0, as in randomTestDAG; an unconsumed pin 1 gets one when the next
// byte is odd, so some blocks keep a dangling pin.
func decodePareCase(data []byte) (*graph.Graph, Constraints, bool) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	flags := next()
	c := Constraints{MaxInputs: 1 + flags%3, MaxOutputs: 1 + flags/3%3}
	g := graph.New()
	sensors := make([]graph.NodeID, 1+next()%4)
	for i := range sensors {
		sensors[i] = g.MustAddNode("s"+itoa(i), graph.RolePrimaryInput, 0, 1)
	}
	inner := make([]graph.NodeID, 1+next()%40)
	for i := range inner {
		shape := next()
		nin, nout := 1+shape%3, 1+shape/3%2
		inner[i] = g.MustAddNode("v"+itoa(i), graph.RoleInner, nin, nout)
		for pin := range nin {
			if b := next(); i == 0 || b%3 == 0 {
				g.MustConnect(sensors[b/3%len(sensors)], 0, inner[i], pin)
			} else {
				from := inner[b/3%i]
				g.MustConnect(from, next()%g.NumOut(from), inner[i], pin)
			}
		}
	}
	outs := 0
	for _, v := range inner {
		for pin := range g.NumOut(v) {
			if len(g.OutEdges(v, pin)) > 0 {
				continue
			}
			if (pin == 0 && g.Outdegree(v) == 0) || (pin > 0 && next()%2 == 1) {
				o := g.MustAddNode("out"+itoa(outs), graph.RolePrimaryOutput, 1, 0)
				outs++
				g.MustConnect(v, pin, o, 0)
			}
		}
	}
	return g, c, flags&0x80 != 0
}
