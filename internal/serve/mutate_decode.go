package serve

import (
	"bytes"
	"encoding/json"
	"strconv"
)

// decodeMutate parses a /v1/mutate body into req. A body in the documented
// shape — the field names as spelled in MutateRequest's tags, numbers where
// numbers go, no null and no escaped keys — takes one pass of a parser that
// knows that shape; anything else, malformed bodies included, goes to
// encoding/json with unknown fields disallowed, which also words the
// errors. encoding/json scans the whole body once to validate it and again
// to decode it, which made decoding a wide feature row most of
// /v1/mutate's server time.
// The fast path accepts only input on which encoding/json yields the same
// request, bit for bit (TestDecodeMutateMatchesEncodingJSON), and like
// json.Decoder it ignores whatever follows the first value.
func decodeMutate(body []byte, req *MutateRequest) error {
	p := mutParser{b: body}
	if p.request(req) {
		return nil
	}
	*req = MutateRequest{}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(req)
}

// mutParser is the fast path's cursor. Every method returns false on
// anything outside the shape it knows, which sends the body to the
// fallback; it never reports an error of its own.
type mutParser struct {
	b []byte
	i int
}

func (p *mutParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if it comes next.
func (p *mutParser) next(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// object parses {"key": value, ...}, handing each key to field, which
// parses the value. Keys must be plain (no escapes) and distinct.
func (p *mutParser) object(field func(key string) bool) bool {
	if !p.next('{') {
		return false
	}
	if p.next('}') {
		return true
	}
	var seen [8]string
	n := 0
	for {
		if !p.next('"') {
			return false
		}
		end := bytes.IndexByte(p.b[p.i:], '"')
		if end < 0 {
			return false
		}
		key := p.b[p.i : p.i+end]
		if bytes.IndexByte(key, '\\') >= 0 {
			return false
		}
		p.i += end + 1
		for _, k := range seen[:n] {
			if k == string(key) {
				return false
			}
		}
		if n == len(seen) || !p.next(':') || !field(string(key)) {
			return false
		}
		seen[n] = string(key)
		n++
		if p.next('}') {
			return true
		}
		if !p.next(',') {
			return false
		}
	}
}

// array parses [elem, ...], calling elem once per element.
func (p *mutParser) array(elem func() bool) bool {
	if !p.next('[') {
		return false
	}
	if p.next(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if p.next(']') {
			return true
		}
		if !p.next(',') {
			return false
		}
	}
}

// number returns the next token if it is a JSON number: -?int frac? exp?
// with no leading zeros.
func (p *mutParser) number() ([]byte, bool) {
	p.ws()
	b, i := p.b, p.i
	digits := func() bool {
		start := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	intStart := i
	if !digits() || (b[intStart] == '0' && i-intStart > 1) {
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false
		}
	}
	tok := b[p.i:i]
	p.i = i
	return tok, true
}

// int32 parses an integer-valued number in int32's range.
func (p *mutParser) int32(dst *int32) bool {
	tok, ok := p.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseInt(string(tok), 10, 32)
	if err != nil {
		return false
	}
	*dst = int32(v)
	return true
}

// row parses an array of numbers in float32's range, each to the float32
// strconv.ParseFloat gives at bitSize 32 — what encoding/json stores.
func (p *mutParser) row(dst *[]float32) bool {
	if !p.next('[') {
		return false
	}
	row := []float32{}
	if end := bytes.IndexByte(p.b[p.i:], ']'); end >= 0 {
		row = make([]float32, 0, bytes.Count(p.b[p.i:p.i+end], []byte{','})+1)
	}
	*dst = row
	if p.next(']') {
		return true
	}
	for {
		tok, ok := p.number()
		if !ok {
			return false
		}
		f, err := strconv.ParseFloat(string(tok), 32)
		if err != nil {
			return false
		}
		row = append(row, float32(f))
		*dst = row
		if p.next(']') {
			return true
		}
		if !p.next(',') {
			return false
		}
	}
}

// list parses an array of objects into *dst, one field call per element.
func list[T any](p *mutParser, dst *[]T, field func(e *T, key string) bool) bool {
	out := []T{}
	ok := p.array(func() bool {
		out = append(out, *new(T))
		e := &out[len(out)-1]
		return p.object(func(key string) bool { return field(e, key) })
	})
	*dst = out
	return ok
}

func (p *mutParser) request(req *MutateRequest) bool {
	return p.object(func(key string) bool {
		switch key {
		case "features":
			return list(p, &req.Features, func(e *NodeFeatureUpdate, key string) bool {
				switch key {
				case "node":
					return p.int32(&e.Node)
				case "features":
					return p.row(&e.Features)
				}
				return false
			})
		case "add_nodes":
			return list(p, &req.AddNodes, func(e *NewNode, key string) bool {
				return key == "features" && p.row(&e.Features)
			})
		case "add_edges":
			return list(p, &req.AddEdges, func(e *NewEdge, key string) bool {
				switch key {
				case "src":
					return p.int32(&e.Src)
				case "dst":
					return p.int32(&e.Dst)
				case "features":
					return p.row(&e.Features)
				}
				return false
			})
		case "remove_edges":
			return list(p, &req.RemoveEdges, func(e *EdgeRef, key string) bool {
				switch key {
				case "src":
					return p.int32(&e.Src)
				case "dst":
					return p.int32(&e.Dst)
				}
				return false
			})
		case "refresh":
			p.ws()
			switch {
			case bytes.HasPrefix(p.b[p.i:], []byte("true")):
				req.Refresh, p.i = true, p.i+4
			case bytes.HasPrefix(p.b[p.i:], []byte("false")):
				req.Refresh, p.i = false, p.i+5
			default:
				return false
			}
			return true
		}
		return false
	})
}
