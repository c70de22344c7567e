package inference

import (
	"fmt"
	"slices"

	"inferturbo/internal/checkpoint"
	"inferturbo/internal/tensor"
)

// Durable checkpoint codec for the GNN driver: the byte form of vtxValue,
// gnnMsg, and the batched plane's progSnap inside an epoch file. Floats
// round-trip through their IEEE-754 bit patterns (checkpoint.AppendF32s), so
// a resumed run recomputes from exactly the slices the killed run held —
// the foundation of the crash-resume bit-identity guarantee.

// gnnCodec implements pregel.SnapshotCodec[vtxValue, gnnMsg].
type gnnCodec struct{}

func (gnnCodec) EncodeValues(dst []byte, vals []vtxValue) ([]byte, error) {
	b := checkpoint.AppendU64(dst, uint64(len(vals)))
	for _, v := range vals {
		b = checkpoint.AppendF32s(b, v.h)
		b = checkpoint.AppendF32s(b, v.aux)
	}
	return b, nil
}

func (gnnCodec) DecodeValues(data []byte, into []vtxValue) error {
	r := checkpoint.NewReader(data)
	n := int(r.U64())
	if n != len(into) {
		return fmt.Errorf("inference: checkpoint holds %d vertex values, engine has %d", n, len(into))
	}
	for i := range into {
		into[i].h = r.F32s()
		into[i].aux = r.F32s()
		if len(into[i].aux) == 0 {
			into[i].aux = nil
		}
	}
	return r.Err()
}

func (gnnCodec) EncodeMsgs(dst []byte, msgs []gnnMsg) ([]byte, error) {
	b := checkpoint.AppendU64(dst, uint64(len(msgs)))
	for _, m := range msgs {
		b = checkpoint.AppendU32(b, uint32(m.Kind)|uint32(m.Reduce)<<8)
		b = checkpoint.AppendU32(b, uint32(m.Src))
		b = checkpoint.AppendU32(b, uint32(m.Count))
		b = checkpoint.AppendF32s(b, m.Payload)
	}
	return b, nil
}

func (gnnCodec) DecodeMsgs(data []byte) ([]gnnMsg, error) {
	r := checkpoint.NewReader(data)
	n := int(r.U64())
	msgs := make([]gnnMsg, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		var m gnnMsg
		hdr := r.U32()
		m.Kind, m.Reduce = uint8(hdr), uint8(hdr>>8)
		m.Src = int32(r.U32())
		m.Count = int32(r.U32())
		if p := r.F32s(); len(p) > 0 {
			m.Payload = p
		}
		msgs = append(msgs, m)
	}
	return msgs, r.Err()
}

// appendMatrix serializes one optional slab: a presence flag, then shape and
// bit-exact float data. It grows b at most once, so a buffer reused from an
// earlier same-shape slab is never reallocated.
func appendMatrix(b []byte, m *tensor.Matrix) []byte {
	if m == nil {
		return checkpoint.AppendBools(b, []bool{false})
	}
	b = slices.Grow(b, 9+3*8+4*len(m.Data))
	b = checkpoint.AppendBools(b, []bool{true})
	b = checkpoint.AppendU64(b, uint64(m.Rows))
	b = checkpoint.AppendU64(b, uint64(m.Cols))
	return checkpoint.AppendF32s(b, m.Data)
}

func readMatrix(r *checkpoint.Reader) *tensor.Matrix {
	present := r.Bools()
	if len(present) != 1 || !present[0] {
		return nil
	}
	rows := int(r.U64())
	cols := int(r.U64())
	data := r.F32s()
	if r.Err() != nil || rows*cols != len(data) {
		return nil
	}
	return &tensor.Matrix{Rows: rows, Cols: cols, Data: data}
}

// EncodeProgState implements pregel.ProgramDiskStater for the batched
// plane's per-worker state slabs (the progSnap a checkpoint carries).
func (d *pregelDriver) EncodeProgState(dst []byte, snap any) ([]byte, error) {
	if snap == nil {
		return dst, nil
	}
	s, ok := snap.(*progSnap)
	if !ok {
		return nil, fmt.Errorf("inference: unexpected program snapshot type %T", snap)
	}
	b := checkpoint.AppendU64(dst, uint64(len(s.states)))
	for w := range s.states {
		b = appendMatrix(b, s.states[w])
		b = appendMatrix(b, s.emits[w])
		b = appendMatrix(b, s.embs[w])
	}
	return b, nil
}

// DecodeProgState implements pregel.ProgramDiskStater.
func (d *pregelDriver) DecodeProgState(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, nil
	}
	r := checkpoint.NewReader(data)
	nw := int(r.U64())
	if nw != d.opts.NumWorkers {
		return nil, fmt.Errorf("inference: checkpoint program state has %d workers, run has %d", nw, d.opts.NumWorkers)
	}
	s := &progSnap{
		states: make([]*tensor.Matrix, nw),
		emits:  make([]*tensor.Matrix, nw),
		embs:   make([]*tensor.Matrix, nw),
	}
	for w := 0; w < nw; w++ {
		s.states[w] = readMatrix(r)
		s.emits[w] = readMatrix(r)
		s.embs[w] = readMatrix(r)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return s, nil
}
