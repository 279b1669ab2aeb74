package service

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"unicode/utf8"
)

// decodeResponse parses a stored response.v1 body. Every body the
// service stores is json.Marshal output for a Response, so it reads
// exactly that layout — fields in declaration order, no whitespace —
// in one pass, and reports false on anything else. On a cache hit the
// decode is most of the work, and encoding/json scans the whole body
// twice (validate, then decode) and unescapes the large C and .ebk
// texts byte by byte.
//
// Whatever it accepts decodes exactly as encoding/json decodes it (the
// tests and FuzzDecodeResponse hold the two equal): strings must be
// valid UTF-8 with no raw control bytes and no UTF-16 surrogate
// escapes (json.Marshal writes none), and the synthesized design is
// kept as raw JSON, as encoding/json keeps a json.RawMessage, after
// checking it as JSON in the same pass. Each byte is read about once,
// which also keeps the decode cheap under the race detector.
func decodeResponse(raw []byte) (*Response, bool) {
	d := respDecoder{b: raw}
	r := &Response{}
	c := &r.Constraints
	ok := d.lit(`{"designHash":`) && d.str(&r.DesignHash) &&
		d.lit(`,"design":`) && d.str(&r.Design) &&
		d.lit(`,"algorithm":`) && d.str(&r.Algorithm) &&
		d.lit(`,"constraints":{"maxInputs":`) && d.int(&c.MaxInputs) &&
		d.lit(`,"maxOutputs":`) && d.int(&c.MaxOutputs) &&
		d.lit(`,"paperMode":`) && d.bool(&c.PaperMode) &&
		d.lit(`},"innerBlocksBefore":`) && d.int(&r.InnerBefore) &&
		d.lit(`,"innerBlocksAfter":`) && d.int(&r.InnerAfter) &&
		d.lit(`,"fitChecks":`) && d.int(&r.FitChecks) &&
		d.lit(`,"partitions":`) && d.partitions(&r.Partitions) &&
		(!d.lit(`,"uncovered":`) || d.strs(&r.Uncovered)) &&
		d.lit(`,"synthesized":`) && d.rawValue(&r.Synthesized) &&
		d.lit(`,"synthesizedEbk":`) && d.str(&r.SynthesizedEBK) &&
		d.lit(`,"cSource":`) && d.strMap(&r.CSource) &&
		d.lit(`}`) && d.i == len(d.b)
	if !ok {
		return nil, false
	}
	return r, true
}

// respDecoder is decodeResponse's cursor over the body.
type respDecoder struct {
	b []byte
	i int
}

// lit consumes s if the input continues with it.
func (d *respDecoder) lit(s string) bool {
	if len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

func (d *respDecoder) int(v *int) bool {
	start := d.i
	d.lit("-")
	digits := d.i
	if !d.digits() || (d.i-digits > 1 && d.b[digits] == '0') {
		return false
	}
	x, err := strconv.Atoi(string(d.b[start:d.i]))
	*v = x
	return err == nil
}

func (d *respDecoder) bool(v *bool) bool {
	switch {
	case d.lit("true"):
		*v = true
	case d.lit("false"):
		*v = false
	default:
		return false
	}
	return true
}

// str decodes one JSON string into *v, or only checks it when v is
// nil. Each byte is read once in Go code: the quote and escape
// searches use bytes.IndexByte and the runs between escapes are copied
// whole.
func (d *respDecoder) str(v *string) bool {
	if !d.lit(`"`) {
		return false
	}
	// The closing quote is the first one after an even run of
	// backslashes.
	end := d.i
	for {
		k := bytes.IndexByte(d.b[end:], '"')
		if k < 0 {
			return false
		}
		end += k
		n := 0
		for end-n > d.i && d.b[end-n-1] == '\\' {
			n++
		}
		if n%2 == 0 {
			break
		}
		end++
	}
	// The decoded string is no longer than the quoted text.
	var out strings.Builder
	if v != nil {
		out.Grow(end - d.i)
	}
	for {
		k := bytes.IndexByte(d.b[d.i:end], '\\')
		if k < 0 {
			k = end - d.i
		}
		run := d.b[d.i : d.i+k]
		if !jsonText(run) {
			return false
		}
		if v != nil {
			out.Write(run)
		}
		if d.i += k; d.i == end {
			break
		}
		// An escape: the end search stepped over its second byte, so
		// d.i+1 < end.
		var r rune
		switch e := d.b[d.i+1]; e {
		case '"', '\\', '/':
			r = rune(e)
		case 'b':
			r = '\b'
		case 'f':
			r = '\f'
		case 'n':
			r = '\n'
		case 'r':
			r = '\r'
		case 't':
			r = '\t'
		case 'u':
			if d.i+6 > end {
				return false
			}
			u, err := strconv.ParseUint(string(d.b[d.i+2:d.i+6]), 16, 16)
			if err != nil || (u >= 0xD800 && u < 0xE000) {
				return false
			}
			r = rune(u)
			d.i += 4
		default:
			return false
		}
		if v != nil {
			out.WriteRune(r)
		}
		d.i += 2
	}
	d.i = end + 1
	if v != nil {
		*v = out.String()
	}
	return true
}

// jsonText reports whether s may appear unescaped inside a JSON string
// that decodes to itself: valid UTF-8 with no byte below 0x20. (A
// backslash never splits a UTF-8 sequence, so runs are checked
// independently.)
func jsonText(s []byte) bool {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c < 0x20 {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(s[i:])
		if r == utf8.RuneError && size == 1 {
			return false
		}
		i += size
	}
	return true
}

// list decodes a bracketed, comma-separated sequence whose elements
// item decodes.
func (d *respDecoder) list(open, close string, item func() bool) bool {
	if !d.lit(open) {
		return false
	}
	for first := true; !d.lit(close); first = false {
		if (!first && !d.lit(",")) || !item() {
			return false
		}
	}
	return true
}

// strs decodes null or an array of strings.
func (d *respDecoder) strs(v *[]string) bool {
	if d.lit("null") {
		return true
	}
	*v = []string{}
	return d.list("[", "]", func() bool {
		var s string
		*v = append(*v, s)
		return d.str(&(*v)[len(*v)-1])
	})
}

// partitions decodes null or an array of Partition objects.
func (d *respDecoder) partitions(v *[]Partition) bool {
	if d.lit("null") {
		return true
	}
	*v = []Partition{}
	return d.list("[", "]", func() bool {
		*v = append(*v, Partition{})
		p := &(*v)[len(*v)-1]
		return d.lit(`{"block":`) && d.str(&p.Block) &&
			d.lit(`,"inputs":`) && d.int(&p.Inputs) &&
			d.lit(`,"outputs":`) && d.int(&p.Outputs) &&
			d.lit(`,"members":`) && d.strs(&p.Members) && d.lit("}")
	})
}

// strMap decodes null or an object of string values.
func (d *respDecoder) strMap(v *map[string]string) bool {
	if d.lit("null") {
		return true
	}
	*v = map[string]string{}
	return d.list("{", "}", func() bool {
		var k, s string
		if !d.str(&k) || !d.lit(":") || !d.str(&s) {
			return false
		}
		(*v)[k] = s
		return true
	})
}

// rawValue copies one JSON value, checked as it is skipped.
func (d *respDecoder) rawValue(v *json.RawMessage) bool {
	start := d.i
	if !d.value(0) {
		return false
	}
	*v = bytes.Clone(d.b[start:d.i])
	return true
}

// maxRawDepth bounds the nesting value accepts, below encoding/json's
// own limit; a synthesized design nests four deep.
const maxRawDepth = 100

// value skips one JSON value with no whitespace, accepting only what
// encoding/json accepts.
func (d *respDecoder) value(depth int) bool {
	if d.i == len(d.b) || depth > maxRawDepth {
		return false
	}
	switch d.b[d.i] {
	case '{':
		return d.list("{", "}", func() bool { return d.str(nil) && d.lit(":") && d.value(depth+1) })
	case '[':
		return d.list("[", "]", func() bool { return d.value(depth + 1) })
	case '"':
		return d.str(nil)
	case 't':
		return d.lit("true")
	case 'f':
		return d.lit("false")
	case 'n':
		return d.lit("null")
	}
	// A number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
	d.lit("-")
	if !d.lit("0") && !d.digits() {
		return false
	}
	if d.lit(".") && !d.digits() {
		return false
	}
	if d.lit("e") || d.lit("E") {
		_ = d.lit("+") || d.lit("-")
		return d.digits()
	}
	return true
}

// digits consumes a run of decimal digits and reports whether it was
// non-empty.
func (d *respDecoder) digits() bool {
	start := d.i
	for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}
