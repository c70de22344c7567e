package graph

import (
	"fmt"

	"inferturbo/internal/checkpoint"
)

// DeltaVersion versions AppendDelta's encoding: a version word, then each
// of the four mutation lists as a u64 count followed by its entries. Node
// ids are u32, feature rows length-prefixed raw IEEE-754 bits, so a decoded
// batch applies bit for bit as the encoded one did. The serving layer's WAL
// records and a durable session's delta links both carry batches in this
// form.
const DeltaVersion = 1

// AppendDelta appends d's encoding to b.
func AppendDelta(b []byte, d Delta) []byte {
	b = checkpoint.AppendU32(b, DeltaVersion)
	b = checkpoint.AppendU64(b, uint64(len(d.Features)))
	for _, f := range d.Features {
		b = checkpoint.AppendU32(b, uint32(f.Node))
		b = checkpoint.AppendF32s(b, f.Features)
	}
	b = checkpoint.AppendU64(b, uint64(len(d.AddNodes)))
	for _, a := range d.AddNodes {
		b = checkpoint.AppendF32s(b, a.Features)
	}
	b = checkpoint.AppendU64(b, uint64(len(d.AddEdges)))
	for _, e := range d.AddEdges {
		b = checkpoint.AppendU32(b, uint32(e.Src))
		b = checkpoint.AppendU32(b, uint32(e.Dst))
		b = checkpoint.AppendF32s(b, e.Features)
	}
	b = checkpoint.AppendU64(b, uint64(len(d.RemoveEdges)))
	for _, e := range d.RemoveEdges {
		b = checkpoint.AppendU32(b, uint32(e.Src))
		b = checkpoint.AppendU32(b, uint32(e.Dst))
	}
	return b
}

// DecodeDelta parses one AppendDelta encoding, which must fill b exactly.
// Counts are bounds-checked by the Reader's length caps, so hostile
// payloads error instead of allocating.
func DecodeDelta(b []byte) (Delta, error) {
	var d Delta
	r := checkpoint.NewReader(b)
	if v := r.U32(); v != DeltaVersion {
		return d, fmt.Errorf("graph: delta encoding version %d, want %d", v, DeltaVersion)
	}
	nf := int(r.U64())
	for i := 0; i < nf && r.Err() == nil; i++ {
		node := int32(r.U32())
		d.Features = append(d.Features, FeatureUpdate{Node: node, Features: r.F32s()})
	}
	nn := int(r.U64())
	for i := 0; i < nn && r.Err() == nil; i++ {
		d.AddNodes = append(d.AddNodes, NodeAdd{Features: r.F32s()})
	}
	ne := int(r.U64())
	for i := 0; i < ne && r.Err() == nil; i++ {
		src, dst := int32(r.U32()), int32(r.U32())
		var feat []float32
		if f := r.F32s(); len(f) > 0 {
			feat = f
		}
		d.AddEdges = append(d.AddEdges, EdgeAdd{Src: src, Dst: dst, Features: feat})
	}
	nr := int(r.U64())
	for i := 0; i < nr && r.Err() == nil; i++ {
		d.RemoveEdges = append(d.RemoveEdges, EdgeKey{Src: int32(r.U32()), Dst: int32(r.U32())})
	}
	if err := r.Err(); err != nil {
		return Delta{}, fmt.Errorf("graph: delta payload: %w", err)
	}
	if r.Remaining() != 0 {
		return Delta{}, fmt.Errorf("graph: delta payload has %d trailing bytes", r.Remaining())
	}
	return d, nil
}
