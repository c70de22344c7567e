package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"inferturbo/internal/tensor"
)

// specialFloats covers every float class the codec must carry bit for bit:
// quiet and signalling NaNs with payloads, both infinities, negative zero,
// and denormals.
var specialFloats = []float32{
	math.Float32frombits(0x7fc00001),
	math.Float32frombits(0xff800123),
	float32(math.Inf(1)),
	float32(math.Inf(-1)),
	float32(math.Copysign(0, -1)),
	math.Float32frombits(1),
	math.Float32frombits(0x807fffff),
}

func withSpecialFloats(m *tensor.Matrix) {
	for i := range m.Data {
		if i < len(specialFloats) {
			m.Data[i] = specialFloats[i]
		}
	}
}

// codecCases returns graphs with every optional field on and off, a
// zero-node graph and a graph with isolated nodes.
func codecCases() map[string]*Graph {
	cases := map[string]*Graph{
		"labels":           fuzzSeedGraph(false, false),
		"edge-features":    fuzzSeedGraph(true, false),
		"multi-labels":     fuzzSeedGraph(false, true),
		"all-optional":     fuzzSeedGraph(true, true),
		"zero-nodes":       NewBuilder(0).Build(),
		"zero-nodes-feats": NewBuilder(0).Build(),
	}
	cases["zero-nodes-feats"].Features = tensor.New(0, 4)

	bare := fuzzSeedGraph(false, false)
	bare.Labels, bare.TrainMask, bare.ValMask, bare.TestMask = nil, nil, nil, nil
	bare.Features = nil
	cases["bare"] = bare

	b := NewBuilder(5)
	b.AddEdge(0, 1, nil)
	isolated := b.Build()
	isolated.Features = tensor.New(5, 3)
	isolated.TrainMask = []bool{false, true, false, false, true}
	cases["isolated"] = isolated

	for _, g := range cases {
		for _, m := range []*tensor.Matrix{g.Features, g.EdgeFeatures, g.MultiLabels} {
			if m != nil {
				withSpecialFloats(m)
			}
		}
	}
	return cases
}

// withNilEmpties returns a shallow copy of g whose zero-length slices are
// nil — what Decode hands back for them.
func withNilEmpties(g *Graph) *Graph {
	c := *g
	for _, a := range []*[]int32{&c.OutPtr, &c.OutDst, &c.OutEdge, &c.InPtr, &c.InSrc, &c.InEdge, &c.Labels} {
		*a = nilIfEmpty(*a)
	}
	for _, m := range []*[]bool{&c.TrainMask, &c.ValMask, &c.TestMask} {
		*m = nilIfEmpty(*m)
	}
	return &c
}

func TestGraphEncodeDecodeRoundTrip(t *testing.T) {
	for name, g := range codecCases() {
		t.Run(name, func(t *testing.T) {
			g2, err := Decode(g.AppendEncoding(nil))
			if err != nil {
				t.Fatal(err)
			}
			requireSameGraph(t, name, withNilEmpties(g), g2)
			for _, m := range []*tensor.Matrix{g2.Features, g2.EdgeFeatures, g2.MultiLabels} {
				if m != nil && len(m.Data) == 0 && m.Data != nil {
					t.Fatal("zero-length matrix data decoded non-nil")
				}
			}
		})
	}
}

func TestGraphEncodingExactSize(t *testing.T) {
	for name, g := range codecCases() {
		var out []byte
		if allocs := testing.AllocsPerRun(10, func() { out = g.AppendEncoding(nil) }); allocs != 1 {
			t.Fatalf("%s: AppendEncoding(nil) made %v allocations, want 1", name, allocs)
		}
		if len(out) != g.encodedSize() {
			t.Fatalf("%s: encoded %d bytes, precomputed %d", name, len(out), g.encodedSize())
		}
		buf := make([]byte, 0, len(out))
		if allocs := testing.AllocsPerRun(10, func() { out = g.AppendEncoding(buf[:0]) }); allocs != 0 {
			t.Fatalf("%s: AppendEncoding into a large-enough buffer made %v allocations", name, allocs)
		}
	}
}

func TestDecodeRejectsTruncationAndTrailingBytes(t *testing.T) {
	for name, g := range codecCases() {
		enc := g.AppendEncoding(nil)
		for n := 0; n < len(enc); n++ {
			if _, err := Decode(enc[:n]); err == nil {
				t.Fatalf("%s: %d-byte prefix of %d decoded", name, n, len(enc))
			}
		}
		if _, err := Decode(append(enc, 0)); err == nil {
			t.Fatalf("%s: trailing byte accepted", name)
		}
	}
}

// TestDecodeRejectsHostileShapes patches counts and matrix headers of a
// valid encoding: oversized counts, a rows x cols product that overflows
// (outright, or wrapping to the data length: (2^62+6) x 4 = 24 mod 2^64),
// and a shape that disagrees with the data length must all error.
func TestDecodeRejectsHostileShapes(t *testing.T) {
	g := fuzzSeedGraph(false, false)
	enc := g.AppendEncoding(nil)
	// The Features header sits after the magic, the counts and the seven
	// int32 arrays, behind its presence byte.
	featAt := len(ioMagic) + 3*8
	for _, a := range [][]int32{g.OutPtr, g.OutDst, g.OutEdge, g.InPtr, g.InSrc, g.InEdge, g.Labels} {
		featAt += 8 + 4*len(a)
	}
	if enc[featAt] != 1 {
		t.Fatal("features presence byte not where expected")
	}
	rowsAt, colsAt := featAt+1, featAt+9
	for name, patch := range map[string]func(b []byte){
		"nodes>MaxInt32": func(b []byte) { binary.LittleEndian.PutUint64(b[len(ioMagic):], math.MaxInt32+1) },
		"edges=2^63":     func(b []byte) { binary.LittleEndian.PutUint64(b[len(ioMagic)+8:], 1<<63) },
		"rows*cols>2^64": func(b []byte) {
			binary.LittleEndian.PutUint64(b[rowsAt:], 1<<33)
			binary.LittleEndian.PutUint64(b[colsAt:], 1<<33)
		},
		"rows*cols wraps":  func(b []byte) { binary.LittleEndian.PutUint64(b[rowsAt:], 1<<62+6) },
		"shape!=len(data)": func(b []byte) { binary.LittleEndian.PutUint64(b[colsAt:], 5) },
		"presence=2":       func(b []byte) { b[featAt] = 2 },
	} {
		b := append([]byte(nil), enc...)
		patch(b)
		if _, err := Decode(b); err == nil {
			t.Fatalf("%s: hostile encoding decoded", name)
		}
	}
}

// TestDecodeRejectsUnorderedRows: a base whose rows are consistent but not
// in ascending edge-id order is refused — the Editor's splice keeps each
// row's order and relies on it being the Builder's. One swapped pair in an
// out-row, then in an in-row, each swapped in both arrays so CSR and CSC
// still describe the same edges.
func TestDecodeRejectsUnorderedRows(t *testing.T) {
	swap := func(nbr, eid []int32, i int) {
		nbr[i], nbr[i+1] = nbr[i+1], nbr[i]
		eid[i], eid[i+1] = eid[i+1], eid[i]
	}
	for name, mangle := range map[string]func(g *Graph){
		"out-row": func(g *Graph) { swap(g.OutDst, g.OutEdge, int(g.OutPtr[0])) }, // node 0: edges 0 and 6
		"in-row":  func(g *Graph) { swap(g.InSrc, g.InEdge, int(g.InPtr[3])) },    // node 3: edges 5 and 6
	} {
		g := fuzzSeedGraph(false, false)
		if _, err := Decode(g.AppendEncoding(nil)); err != nil {
			t.Fatalf("%s: unmangled graph refused: %v", name, err)
		}
		mangle(g)
		_, err := Decode(g.AppendEncoding(nil))
		if err == nil || !strings.Contains(err.Error(), "edge-id order") {
			t.Fatalf("%s: swapped row decoded (err %v)", name, err)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a graph")); err == nil {
		t.Fatal("must reject garbage")
	}
}

func TestDecodeRejectsWrongMagic(t *testing.T) {
	raw := diamond(t).AppendEncoding(nil)
	idx := bytes.Index(raw, []byte(ioMagic))
	if idx < 0 {
		t.Fatal("magic not found")
	}
	raw[idx] = 'X'
	if _, err := Decode(raw); err == nil {
		t.Fatal("must reject wrong magic")
	}
}

func TestDecodeNamesRetiredFormat(t *testing.T) {
	_, err := Decode([]byte("\x16\x0c\x00\x13" + retiredMagic + "gob body"))
	if err == nil || !strings.Contains(err.Error(), "regenerate") {
		t.Fatalf("retired-format file: err = %v, want a regenerate hint", err)
	}
}

func TestSaveLoadFile(t *testing.T) {
	g := diamond(t)
	g.Features = tensor.New(4, 3)
	path := t.TempDir() + "/g.bin"
	if err := g.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges != g.NumEdges {
		t.Fatal("file round trip lost edges")
	}
	s1, d1 := g.EdgeList()
	s2, d2 := g2.EdgeList()
	for i := range s1 {
		if s1[i] != s2[i] || d1[i] != d2[i] {
			t.Fatal("edges lost")
		}
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Fatal("missing file must error")
	}
}
