package service

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/randgen"
	"repro/internal/synth"
)

// decodeCorpus returns stored-response bodies: the service's responses
// for the Table 1 designs and a random population, plus hand-made
// responses whose strings need every escape json.Marshal writes and
// whose optional fields are nil or empty.
func decodeCorpus(t *testing.T) [][]byte {
	t.Helper()
	s := New(Config{})
	var rs []*Response
	for _, e := range designs.Library() {
		r, _, err := s.Synthesize(context.Background(), Request{Design: e.Build()})
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	for i := 0; i < 10; i++ {
		d := randgen.MustGenerate(randgen.Params{InnerBlocks: 5 + 4*i, Seed: int64(300 + i)})
		r, _, err := s.Synthesize(context.Background(), Request{Design: d, Constraints: core.Constraints{MaxInputs: 1 + i%3, MaxOutputs: 1 + i%2}, PaperMode: i%2 == 0})
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	odd := "q\"b\\s/ \b\f\n\r\t \x00\x1f <&>    é 😀 \x7f"
	rs = append(rs,
		&Response{
			PartitionResponse: PartitionResponse{DesignHash: odd, Design: odd, Algorithm: "-", FitChecks: -7,
				Partitions: []Partition{{Block: odd, Inputs: 0, Outputs: 10}}, Uncovered: []string{odd, ""}},
			Synthesized:    json.RawMessage(`{"a":[1,-2.5e3,{"b":"}]\"\\"}],"c":null,"d":true,"e":[0,-0,1E+2,3.25e-1,[],{},[[{}]]],"\u00e9":"\u0041"}`),
			SynthesizedEBK: odd,
			CSource:        map[string]string{odd: odd, "": ""},
		},
		&Response{Synthesized: json.RawMessage(`[]`), CSource: map[string]string{}},
		&Response{},
		&Response{PartitionResponse: PartitionResponse{Partitions: []Partition{}}, Synthesized: json.RawMessage(`{}`)},
	)
	var out [][]byte
	for _, r := range rs {
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, raw)
	}
	return out
}

// checkDecode asserts decodeResponse's contract on one body: when it
// accepts the body, encoding/json decodes it to an equal Response.
func checkDecode(t *testing.T, raw []byte) bool {
	got, ok := decodeResponse(raw)
	if !ok {
		return false
	}
	var want Response
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("decodeResponse accepted a body encoding/json rejects (%v): %q", err, raw)
	}
	if !reflect.DeepEqual(got, &want) {
		t.Fatalf("decodeResponse = %+v, encoding/json = %+v for %q", got, &want, raw)
	}
	return true
}

func TestDecodeResponseMatchesEncodingJSON(t *testing.T) {
	for _, raw := range decodeCorpus(t) {
		if !checkDecode(t, raw) {
			t.Fatalf("decodeResponse rejected json.Marshal output %q", raw)
		}
	}
}

// TestDecodeResponseRejectsOtherLayouts feeds bodies that are not
// compact json.Marshal output, or that encoding/json decodes with
// substitutions, and checks decodeResponse declines them and
// loadResponse treats such a body as a miss.
func TestDecodeResponseRejectsOtherLayouts(t *testing.T) {
	raw := decodeCorpus(t)[0]
	indented, err := json.MarshalIndent(json.RawMessage(raw), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	name := []byte(`"design":"`)
	at := func(b []byte) int {
		for i := range raw {
			if string(raw[i:i+len(b)]) == string(b) {
				return i + len(b)
			}
		}
		t.Fatal("field not found")
		return 0
	}
	splice := func(s string) []byte {
		i := at(name)
		return append(append(append([]byte(nil), raw[:i]...), s...), raw[i:]...)
	}
	for label, body := range map[string][]byte{
		"indented":         indented,
		"trailing space":   append(append([]byte(nil), raw...), ' '),
		"truncated":        raw[:len(raw)/2],
		"surrogate escape": splice(`\ud83d\ude00`),
		"invalid UTF-8":    splice("\xff"),
		"raw control byte": splice("\x01"),
		"unknown escape":   splice(`\x41`),
		"short u escape":   splice(`\u12`),
		"leading zero":     []byte(`{"designHash":"","design":"","algorithm":"","constraints":{"maxInputs":02,`),
		"empty":            nil,
		"not an object":    []byte(`[]`),
	} {
		if checkDecode(t, body) {
			t.Errorf("%s: decodeResponse accepted %q", label, body)
		}
	}
	for _, synthesized := range []string{`{1:2}`, `{"a":[}`, `{"a":[]`, `[1,]`, `{"a" :1}`, `[ 1]`, `01`, `1.`, `.5`, `1e`, `1e+`, `+1`, `-`, `tru`, `nul`, `"\x"`, `[1]]`, strings.Repeat("[", maxRawDepth+2) + strings.Repeat("]", maxRawDepth+2)} {
		body := []byte(`{"designHash":"","design":"","algorithm":"","constraints":{"maxInputs":0,"maxOutputs":0,"paperMode":false},"innerBlocksBefore":0,"innerBlocksAfter":0,"fitChecks":0,"partitions":null,"synthesized":` + synthesized + `,"synthesizedEbk":"","cSource":null}`)
		if checkDecode(t, body) {
			t.Errorf("decodeResponse accepted synthesized %s", synthesized)
		}
	}
	s := New(Config{})
	sk := synth.StageKey{Fingerprint: "indented", Constraints: "2x2", Algorithm: "paredown"}
	s.store.Put(storeKey(sk, stageResponse), indented)
	if got, _, ok := s.loadResponse(sk); ok {
		t.Fatalf("loadResponse served an indented body: %+v", got)
	}
}

// FuzzDecodeResponse holds decodeResponse to its contract on arbitrary
// bodies: whatever it accepts, encoding/json decodes to an equal
// Response.
func FuzzDecodeResponse(f *testing.F) {
	f.Add([]byte(`{"designHash":"a\n","design":"","algorithm":"x","constraints":{"maxInputs":2,"maxOutputs":2,"paperMode":false},"innerBlocksBefore":3,"innerBlocksAfter":1,"fitChecks":4,"partitions":[{"block":"p0","inputs":1,"outputs":1,"members":["a","b"]}],"uncovered":["c"],"synthesized":{"k":["]"]},"synthesizedEbk":"<","cSource":{"p0":"int x;\n"}}`))
	f.Add([]byte(`{"designHash":"","design":"","algorithm":"","constraints":{"maxInputs":0,"maxOutputs":0,"paperMode":false},"innerBlocksBefore":0,"innerBlocksAfter":0,"fitChecks":0,"partitions":[],"synthesized":[-0.5e+3,true,null,{"k":{}}],"synthesizedEbk":"\u00e9\\","cSource":{}}`))
	f.Fuzz(func(t *testing.T, raw []byte) { checkDecode(t, raw) })
}
