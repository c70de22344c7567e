package graph

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"os"

	"inferturbo/internal/checkpoint"
	"inferturbo/internal/tensor"
)

// Serialization lets the cmd tools hand datasets between processes and lets
// a durable session persist its graph snapshot. The format is the
// checkpoint package's little-endian, length-prefixed wire encoding — the
// same one the WAL and the slab segments use — so floats round-trip bit for
// bit (NaN payloads, -0 and denormals included):
//
//	magic        the raw bytes of ioMagic
//	counts       NumNodes, NumEdges, NumClasses as u64
//	adjacency    OutPtr, OutDst, OutEdge, InPtr, InSrc, InEdge, Labels,
//	             each as a u64 length then little-endian int32s
//	matrices     Features, EdgeFeatures, MultiLabels, each as a presence
//	             byte (0 = nil) then, if present, rows and cols as u64 and
//	             the data as a u64 length then raw IEEE-754 bits
//	masks        TrainMask, ValMask, TestMask, each as a u64 length then
//	             one byte per element
//
// Nothing follows the last mask. A zero-length slice decodes to nil.

const ioMagic = "inferturbo-graph-v2"

// retiredMagic is the gob-era header; files carrying it get a regenerate
// hint instead of a bare header mismatch.
const retiredMagic = "inferturbo-graph-v1"

// AppendEncoding appends g's encoding to b and returns the extended slice.
// It computes the exact encoded size first and grows b at most once, so an
// encoder reusing a large-enough buffer allocates nothing.
func (g *Graph) AppendEncoding(b []byte) []byte {
	if n := g.encodedSize(); cap(b)-len(b) < n {
		b = append(make([]byte, 0, len(b)+n), b...)
	}
	b = append(b, ioMagic...)
	b = checkpoint.AppendU64(b, uint64(g.NumNodes))
	b = checkpoint.AppendU64(b, uint64(g.NumEdges))
	b = checkpoint.AppendU64(b, uint64(g.NumClasses))
	b = checkpoint.AppendI32s(b, g.OutPtr)
	b = checkpoint.AppendI32s(b, g.OutDst)
	b = checkpoint.AppendI32s(b, g.OutEdge)
	b = checkpoint.AppendI32s(b, g.InPtr)
	b = checkpoint.AppendI32s(b, g.InSrc)
	b = checkpoint.AppendI32s(b, g.InEdge)
	b = checkpoint.AppendI32s(b, g.Labels)
	b = appendMatrix(b, g.Features)
	b = appendMatrix(b, g.EdgeFeatures)
	b = appendMatrix(b, g.MultiLabels)
	b = checkpoint.AppendBools(b, g.TrainMask)
	b = checkpoint.AppendBools(b, g.ValMask)
	return checkpoint.AppendBools(b, g.TestMask)
}

func appendMatrix(b []byte, m *tensor.Matrix) []byte {
	if m == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = checkpoint.AppendU64(b, uint64(m.Rows))
	b = checkpoint.AppendU64(b, uint64(m.Cols))
	return checkpoint.AppendF32s(b, m.Data)
}

// encodedSize is the exact length AppendEncoding appends.
func (g *Graph) encodedSize() int {
	i32s := len(g.OutPtr) + len(g.OutDst) + len(g.OutEdge) + len(g.InPtr) + len(g.InSrc) + len(g.InEdge) + len(g.Labels)
	masks := len(g.TrainMask) + len(g.ValMask) + len(g.TestMask)
	return len(ioMagic) + 3*8 + 7*8 + 4*i32s + matrixSize(g.Features) + matrixSize(g.EdgeFeatures) +
		matrixSize(g.MultiLabels) + 3*8 + masks
}

func matrixSize(m *tensor.Matrix) int {
	if m == nil {
		return 1
	}
	return 1 + 3*8 + 4*len(m.Data)
}

// Decode parses an encoding written by AppendEncoding and validates it. It
// copies everything it keeps, so b may be reused once it returns. Corrupt
// or adversarial input yields an error, never a panic: every length is
// bounds-checked against the remaining bytes before anything is allocated,
// counts and matrix shapes are checked before Validate guards every index
// invariant, and trailing bytes are rejected — this is a data-plane entry
// point fed by files the process does not control.
func Decode(b []byte) (*Graph, error) {
	if len(b) < len(ioMagic) || string(b[:len(ioMagic)]) != ioMagic {
		if bytes.Contains(b[:min(len(b), 64)], []byte(retiredMagic)) {
			return nil, fmt.Errorf("graph: file is in the retired %s (gob) format, want %s; regenerate it", retiredMagic, ioMagic)
		}
		return nil, fmt.Errorf("graph: bad header, want %s", ioMagic)
	}
	r := checkpoint.NewReader(b[len(ioMagic):])
	var counts [3]int
	for i := range counts {
		c := r.U64()
		if c > math.MaxInt32 {
			return nil, fmt.Errorf("graph: count %d exceeds int32", c)
		}
		counts[i] = int(c)
	}
	g := &Graph{NumNodes: counts[0], NumEdges: counts[1], NumClasses: counts[2]}
	for _, a := range [...]*[]int32{&g.OutPtr, &g.OutDst, &g.OutEdge, &g.InPtr, &g.InSrc, &g.InEdge, &g.Labels} {
		*a = nilIfEmpty(r.I32s())
	}
	for _, m := range [...]**tensor.Matrix{&g.Features, &g.EdgeFeatures, &g.MultiLabels} {
		var err error
		if *m, err = readMatrix(r); err != nil {
			return nil, err
		}
	}
	for _, m := range [...]*[]bool{&g.TrainMask, &g.ValMask, &g.TestMask} {
		*m = nilIfEmpty(r.Bools())
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("graph: decoding: %w", err)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("graph: %d trailing bytes", r.Remaining())
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: loaded graph invalid: %w", err)
	}
	return g, nil
}

// readMatrix reads one appendMatrix record: nil for an absent matrix, an
// error for a bad presence byte or a shape whose rows x cols overflows or
// differs from the data length. A truncated record is left to the
// Reader's sticky error.
func readMatrix(r *checkpoint.Reader) (*tensor.Matrix, error) {
	switch r.U8() {
	case 0:
		return nil, nil
	case 1:
	default:
		return nil, fmt.Errorf("graph: bad matrix presence byte")
	}
	rows, cols := r.U64(), r.U64()
	data := nilIfEmpty(r.F32s())
	if r.Err() != nil {
		return nil, nil
	}
	hi, lo := bits.Mul64(rows, cols)
	if hi != 0 || lo != uint64(len(data)) || rows > math.MaxInt32 || cols > math.MaxInt32 {
		return nil, fmt.Errorf("graph: matrix is %dx%d with %d values", rows, cols, len(data))
	}
	return &tensor.Matrix{Rows: int(rows), Cols: int(cols), Data: data}, nil
}

// nilIfEmpty keeps the decoded zero-length slices nil, as Validate's
// optional-field checks and the builders expect.
func nilIfEmpty[T any](v []T) []T {
	if len(v) == 0 {
		return nil
	}
	return v
}

// SaveFile writes g to path in one write.
func (g *Graph) SaveFile(path string) error {
	return os.WriteFile(path, g.AppendEncoding(nil), 0o666)
}

// LoadFile reads a graph from path.
func LoadFile(path string) (*Graph, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}
