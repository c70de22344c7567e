package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"inferturbo/internal/tensor"
)

// referenceDecode is the decode decodeMutate must agree with.
func referenceDecode(body []byte) (MutateRequest, error) {
	var req MutateRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// randomMutateBody marshals a random request, its rows drawn across
// float32's whole range (signed zeros and denormals included).
func randomMutateBody(rng *tensor.RNG) []byte {
	row := func() []float32 {
		r := make([]float32, rng.Intn(5))
		for i := range r {
			switch rng.Intn(6) {
			case 0:
				r[i] = float32(math.Copysign(0, -1))
			case 1:
				r[i] = math.Float32frombits(uint32(rng.Intn(1 << 23))) // denormal
			case 2:
				r[i] = math.MaxFloat32 * float32(rng.Intn(3)-1)
			default:
				r[i] = (rng.Float32()*2 - 1) * float32(math.Pow(10, float64(rng.Intn(70)-35)))
			}
		}
		return r
	}
	var req MutateRequest
	for i := rng.Intn(3); i > 0; i-- {
		req.Features = append(req.Features, NodeFeatureUpdate{Node: int32(rng.Intn(1 << 20)), Features: row()})
	}
	for i := rng.Intn(2); i > 0; i-- {
		req.AddNodes = append(req.AddNodes, NewNode{Features: row()})
	}
	for i := rng.Intn(3); i > 0; i-- {
		req.AddEdges = append(req.AddEdges, NewEdge{Src: int32(rng.Intn(100)) - 3, Dst: int32(rng.Intn(100)), Features: row()})
	}
	for i := rng.Intn(2); i > 0; i-- {
		req.RemoveEdges = append(req.RemoveEdges, EdgeRef{Src: int32(rng.Intn(100)), Dst: math.MaxInt32})
	}
	req.Refresh = rng.Intn(2) == 0
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	if rng.Intn(2) == 0 {
		var ind bytes.Buffer
		json.Indent(&ind, b, " ", "\t")
		b = ind.Bytes()
	}
	return b
}

// decodeMismatch reports how decodeMutate and its fast path disagree with
// encoding/json on body ("" when they agree). canonical demands the fast
// path take the body.
func decodeMismatch(body []byte, canonical bool) string {
	same := func(a, b MutateRequest) bool {
		ja, _ := json.Marshal(a) // distinguishes -0 from 0
		jb, _ := json.Marshal(b)
		return reflect.DeepEqual(a, b) && bytes.Equal(ja, jb)
	}
	var fast MutateRequest
	accepted := (&mutParser{b: body}).request(&fast)
	ref, rerr := referenceDecode(body)
	if canonical && !accepted {
		return fmt.Sprintf("canonical body refused by the fast path: %s", body)
	}
	if accepted && (rerr != nil || !same(fast, ref)) {
		return fmt.Sprintf("fast path accepted %q as %+v; encoding/json: %+v, %v", body, fast, ref, rerr)
	}
	var out MutateRequest
	gerr := decodeMutate(body, &out)
	if (gerr == nil) != (rerr == nil) || (gerr == nil && !same(out, ref)) {
		return fmt.Sprintf("decodeMutate %+v, %v; encoding/json %+v, %v", out, gerr, ref, rerr)
	}
	return ""
}

// TestDecodeMutateMatchesEncodingJSON: whenever the fast path accepts a
// body, encoding/json accepts it too and decodes the same request, bit for
// bit; every canonical body takes the fast path; and every body the fast
// path refuses decodes exactly as encoding/json decodes it.
func TestDecodeMutateMatchesEncodingJSON(t *testing.T) {
	check := func(label string, body []byte, canonical bool) {
		t.Helper()
		if msg := decodeMismatch(body, canonical); msg != "" {
			t.Fatalf("%s: %s", label, msg)
		}
	}
	rng := tensor.NewRNG(91)
	for i := 0; i < 400; i++ {
		body := randomMutateBody(rng)
		check(fmt.Sprintf("body %d", i), body, true)
		// One corruption per body: a byte changed, dropped or duplicated.
		bad := append([]byte(nil), body...)
		at := rng.Intn(len(bad))
		switch rng.Intn(3) {
		case 0:
			const alphabet = "{}[],:\"-.e0123456789 ntfx\\E+"
			bad[at] = alphabet[rng.Intn(len(alphabet))]
		case 1:
			bad = append(bad[:at], bad[at+1:]...)
		default:
			bad = append(bad[:at+1], bad[at:]...)
		}
		check(fmt.Sprintf("corrupted body %d", i), bad, false)
	}
	for _, body := range []string{
		``, `null`, `[]`, `{}`, `{"features": []}`, `{"features": null}`,
		`{"Features": [{"node": 1, "features": [1]}]}`,
		`{"features": [{"node": 1, "features": [1]}], "features": []}`,
		`{"features": [{"node": 1.0, "features": [1]}]}`,
		`{"features": [{"node": 2147483648, "features": [1]}]}`,
		`{"features": [{"node": -0, "features": [-0, 0.0, 1e-46, 1E+2]}]}`,
		`{"features": [{"node": 1, "features": [1e39]}]}`,
		`{"features": [{"node": 01, "features": [1]}]}`,
		`{"features": [{"node": 1, "features": [.5]}]}`,
		`{"features": [{"node": 1, "features": [+5]}]}`,
		`{"features": [{"node": 1, "features": [1, null]}]}`,
		`{"add_edges": [{"src": 1, "dst": 2, "weight": 3}]}`,
		`{"refresh": true} trailing`, `{"refresh": tru}`, `{"refresh": truex}`,
		`{"features": []}`, `{"features":[{"node":1,"features":[1]}]`,
	} {
		check(fmt.Sprintf("%q", body), []byte(body), false)
	}
}

// FuzzDecodeMutate: on any body, decodeMutate agrees with encoding/json.
func FuzzDecodeMutate(f *testing.F) {
	rng := tensor.NewRNG(92)
	for i := 0; i < 4; i++ {
		f.Add(randomMutateBody(rng))
	}
	f.Add([]byte(`{"features": [{"node": -0, "features": [-0, 1e-46, 1E+2]}], "refresh": false}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		if msg := decodeMismatch(body, false); msg != "" {
			t.Fatal(msg)
		}
	})
}
